"""Run protocol for the two-analyzer bench and the CHSH bookkeeping.

A run launches ``n_pairs`` pairs, one every ``pair_period`` seconds. For
pair i:

1. Both analyzers (optionally) switch at the launch instant, each to a
   setting drawn from its two-angle menu by the pair's own random stream.
2. The pair flies ``source_to_magnet`` centimeters, entering the magnets
   at launch + flight time. A side whose analyzer switched during that
   window may lose its particle: a switched magnet gives the packet a
   longitudinal kick of relative size beam_speed / (beam_speed +
   light_speed), and in inefficient mode a kick at or above
   ``kick_threshold`` throws the particle out of the detected beam.
3. Inside the magnets the pair is transported by the two-particle
   guidance law. Each observer evaluates that law with the setting pair
   she can know: her own current angle always, the partner angle either
   current (nonlocal mode) or as old as the news delay
   separation / signal_speed (local mode). When they give different
   weights the pair is integrated once per view; each observer reads her
   own exit sign from her own view. Both views are read once, at magnet
   entry, so a switch inside the transit, or news of one arriving there,
   is refused as a ConfigError rather than ignored.
4. Outcomes of pairs with both particles detected feed four correlator
   cells keyed by the settings in force at magnet entry, and the cells
   combine into the CHSH statistic
   S = E(a,b) - E(a,b') + E(a',b) + E(a',b').

``run_batch`` reads as draw, prepare, transport, tally. ``pair_draws``
runs once per distinct (master_seed, n_pairs, packet_width);
``prepare_pairs`` fills a config's ``PairTable`` of numpy columns from
its draws and one ``infomodel.entry_reads``; ``transport_views`` moves
the views one block of pairs at a time, for runs and dumps alike; ``_tally``
counts cells from the outcome products. Every draw comes from a stream
derived from (master_seed, role, index), so reruns with one seed are
reproducible pair by pair. The worker count is accepted and changes nothing.
"""

from __future__ import annotations

import enum
import functools
import math
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .errors import ConfigError, EstimationError, IntegrationDiverged
from .infomodel import (
    InformationMode,
    SettingTimelines,
    SideTimeline,
    check_geometry,
    entry_reads,
    static_timeline,
)
from .integrate import IntegrationConfig, integrate_batch, integrate_retiring, sign_outcome
from .physconst import (
    LIGHT_SPEED,
    RawPhysicalInputs,
    SILVER,
    derive_coefficients,
)
from .velocity import SettingPair

CELL_LABELS = ("ab", "ab'", "a'b", "a'b'")
_CHSH_SIGNS = (1.0, -1.0, 1.0, 1.0)
_BATCH_CHUNK = 4096
_PAIR_STREAM = 0
_INIT_STREAM = 1
DEFAULT_SEED = 12345
# A local-mode run with events grows its resident set by about 0.2 kB a
# pair (41 MiB at 200 000 pairs, 161 B a pair traced), so 10**7 pairs is
# about 2 GB. The seeding caps it at 2**32: a pair id is one 32-bit SeedSequence word.
_MAX_PAIRS = 10**7

# NumPy's SeedSequence (NEP 19) at its default pool of four 32-bit words
_SS_POOL = 4
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = (1 << 32) - 1


class Efficiency(enum.Enum):
    """Whether switched magnets can lose particles."""

    EFFICIENT = "efficient"
    INEFFICIENT = "inefficient"


class Normalization(enum.Enum):
    """Denominator convention for the correlator cells.

    ``SINGLES`` divides each cell's coincidence product sum by the number
    of launches assigned to the cell; ``COINCIDENCES`` divides by the
    number of pairs with both particles detected. The two coincide when
    nothing is lost.
    """

    SINGLES = "singles"
    COINCIDENCES = "coincidences"


class SwitchPolicy(enum.Enum):
    """How one analyzer picks its angle over the run."""

    PER_PAIR_RANDOM = "per_pair_random"
    STATIC = "static"
    EXPLICIT_LIST = "explicit_list"


def kick_ratio(beam_speed: float, light_speed: float = LIGHT_SPEED) -> float:
    """Relative longitudinal kick from a switched magnet.

    The packet keeps fraction beam_speed / (beam_speed + light_speed) of
    the switching disturbance; slow beams barely notice, a (hypothetical)
    luminal beam gets exactly one half.
    """
    if not (math.isfinite(beam_speed) and math.isfinite(light_speed)):
        raise ConfigError("speeds must be finite")
    if beam_speed <= 0.0 or light_speed <= 0.0:
        raise ConfigError("speeds must be positive")
    if beam_speed > light_speed:
        raise ConfigError("beam_speed must not exceed light_speed")
    if math.isinf(beam_speed + light_speed):
        # the sum overflows; halving both is exact this close to the float ceiling
        beam_speed, light_speed = beam_speed / 2.0, light_speed / 2.0
    return beam_speed / (beam_speed + light_speed)


def lost_on_switch(efficiency: Efficiency, beam_speed: float, light_speed: float,
                   kick_threshold: float) -> bool:
    """Whether a switch of its own analyzer during the flight loses the particle.

    Efficient detection loses nothing. Inefficient detection loses the
    particle when the kick is at or above the threshold.
    """
    return (efficiency is Efficiency.INEFFICIENT
            and kick_ratio(beam_speed, light_speed) >= kick_threshold)


def detector_loss(
    switched: bool,
    efficiency: Efficiency,
    beam_speed: float,
    light_speed: float,
    kick_threshold: float,
) -> bool:
    """Whether the particle survives into the detected beam: not switched, or not lost by it."""
    return not (switched and lost_on_switch(efficiency, beam_speed, light_speed, kick_threshold))


def check_kick_threshold(value: float, name: str = "kick_threshold") -> float:
    """A kick threshold must be finite and non-negative; returns it unchanged."""
    if not math.isfinite(value) or value < 0.0:
        raise ConfigError(f"{name} must be finite and non-negative, got {value!r}")
    return value


def check_seed(value: int, name: str = "master_seed") -> int:
    """A master seed must be an integer in [0, 2**64); returns it unchanged."""
    if not isinstance(value, int) or not 0 <= value < 2**64:
        raise ConfigError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return value


def _echo(value):
    """JSON-safe form of a config value: enums by value, tuples as lists, -inf as text."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, RawPhysicalInputs):
        return asdict(value)
    if isinstance(value, tuple):
        return [_echo(v) for v in value]
    return "-inf" if value == -math.inf else value


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one run.

    ``workers`` is validated and kept for compatibility with existing
    configs and callers; it selects no code path.
    """

    physics: RawPhysicalInputs = SILVER
    n_pairs: int = 4000
    angles_a: tuple[float, float] = (0.0, math.pi / 2.0)
    angles_b: tuple[float, float] = (math.pi / 4.0, 3.0 * math.pi / 4.0)
    mode: InformationMode = InformationMode.NONLOCAL
    efficiency: Efficiency = Efficiency.EFFICIENT
    normalization: Normalization = Normalization.SINGLES
    kick_threshold: float = 1.0e-3
    master_seed: int = DEFAULT_SEED
    dt: float = 1.0e-6
    separation: float = 100.0
    source_to_magnet: float = 35.0
    pair_period: float = 1.0e-2
    signal_speed: float = 8.0e3
    switch_policy_a: SwitchPolicy = SwitchPolicy.PER_PAIR_RANDOM
    switch_policy_b: SwitchPolicy = SwitchPolicy.PER_PAIR_RANDOM
    explicit_a: tuple[tuple[float, float], ...] = ()
    explicit_b: tuple[tuple[float, float], ...] = ()
    workers: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.n_pairs, int) or self.n_pairs < 4:
            raise ConfigError("n_pairs must be an integer >= 4")
        if self.n_pairs > _MAX_PAIRS:
            raise ConfigError(f"n_pairs must be at most {_MAX_PAIRS}, got {self.n_pairs}")
        for name in ("angles_a", "angles_b"):
            menu = getattr(self, name)
            if len(menu) != 2 or not all(math.isfinite(a) for a in menu):
                raise ConfigError(f"{name} must be two finite angles")
            if menu[0] == menu[1]:
                raise ConfigError(f"{name} must hold two distinct angles")
        check_kick_threshold(self.kick_threshold)
        check_seed(self.master_seed)
        check_geometry(self.separation, self.signal_speed)
        if not math.isfinite(self.source_to_magnet) or self.source_to_magnet < 0.0:
            raise ConfigError("source_to_magnet must be non-negative")
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ConfigError("workers must be a positive integer")
        # built here so a bad dt fails before prepare; n_steps * dt is the transit that runs
        grid = self.transport_grid()
        cover = self.flight_time + grid.n_steps * grid.dt
        if not math.isfinite(self.pair_period) or self.pair_period < cover:
            raise ConfigError(
                f"pair_period must cover flight plus magnet transit ({cover:.6g} s)")
        if not math.isfinite(self.n_pairs * self.pair_period):
            raise ConfigError(f"pair_period {self.pair_period!r} overflows the launch times")
        for policy_name, list_name in (
            ("switch_policy_a", "explicit_a"),
            ("switch_policy_b", "explicit_b"),
        ):
            policy = getattr(self, policy_name)
            entries = getattr(self, list_name)
            if policy is SwitchPolicy.EXPLICIT_LIST and not entries:
                raise ConfigError(f"{policy_name} is explicit_list but {list_name} is empty")
            if policy is not SwitchPolicy.EXPLICIT_LIST and entries:
                raise ConfigError(f"{list_name} given but {policy_name} is not explicit_list")

    @property
    def flight_time(self) -> float:
        return self.source_to_magnet / self.physics.beam_speed

    @property
    def switching_active(self) -> bool:
        return (self.switch_policy_a is not SwitchPolicy.STATIC
                or self.switch_policy_b is not SwitchPolicy.STATIC)

    def transport_grid(self, record_every: int = 0) -> IntegrationConfig:
        """The step grid of one magnet transit at this config's dt."""
        transit = derive_coefficients(self.physics).transit_time
        return IntegrationConfig(dt=self.dt, duration=transit, record_every=record_every)

    def to_dict(self) -> dict:
        """JSON-safe echo of every field that can affect the numbers.

        The worker count is deliberately absent: it is accepted for
        compatibility and changes nothing, and reports from the same
        experiment must compare equal whatever value it was given.
        """
        return {f.name: _echo(getattr(self, f.name)) for f in fields(self)
                if f.name != "workers"}


@dataclass(frozen=True, eq=False)
class PairTable:
    """The launched pairs of a run as numpy columns, one row per pair.

    ``setting_a`` and ``setting_b`` are the angles in force at magnet
    entry, ``a_index`` and ``b_index`` their places in the menus (-1 when
    off-menu). Observer A attributes (setting_a, b_seen_by_a) to the
    apparatus, observer B (a_seen_by_b, setting_b). The outcome columns
    are None until transport, and 0 for a pair left untransported. Pair
    k is row k of every column; ``len`` counts the pairs and ``==``
    compares every column.
    """

    pair_id: np.ndarray
    z_l0: np.ndarray
    z_r0: np.ndarray
    setting_a: np.ndarray
    setting_b: np.ndarray
    a_index: np.ndarray
    b_index: np.ndarray
    b_seen_by_a: np.ndarray
    a_seen_by_b: np.ndarray
    switched_a: np.ndarray
    switched_b: np.ndarray
    survived_a: np.ndarray
    survived_b: np.ndarray
    outcome_a: np.ndarray | None = None
    outcome_b: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.pair_id)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairTable):
            return NotImplemented
        # np.array_equal(None, None) holds, and None never equals an array
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


@dataclass(frozen=True)
class BellEstimate:
    """Four correlators with their cell sizes, combined into S.

    ``n_values`` are the denominators actually used, so their meaning
    follows the normalization convention of the run.
    """

    e_values: tuple[float, float, float, float]
    n_values: tuple[int, int, int, int]
    s_signed: float
    s_abs: float
    sigma_s: float

    def per_setting(self) -> dict:
        return {
            label: {"E": self.e_values[i], "N": self.n_values[i]}
            for i, label in enumerate(CELL_LABELS)
        }


@dataclass(frozen=True)
class CountRates:
    """Singles and coincidence rates, quiescent (unprimed) vs switching (primed)."""

    q1: float
    q1p: float
    c2: float
    c2p: float
    q1_a: float
    q1_b: float
    q1p_a: float
    q1p_b: float

    @property
    def singles_ratio(self) -> float:
        return self.q1p / self.q1

    @property
    def coincidence_ratio(self) -> float:
        return self.c2p / self.c2


@dataclass(frozen=True)
class ExperimentReport:
    """Full outcome of one run, built once by ``run_epr``.

    ``records`` is the run's ``PairTable``, outcomes included; an
    outcome is 0 for a pair that was not transported, which happens
    only under ``run_batch(..., every_outcome=False)`` and only to pairs
    outside every cell. ``bell`` is formed from the cells on first use
    and is None while a cell is empty. ``off_menu`` counts the pairs
    with a setting outside its side's menu (possible only with an
    explicit list); they fall out of every cell. ``systems`` counts the
    distinct systems transported and ``runtime_s`` is the wall time,
    both of the whole ``run_batch`` call that made the report
    (``run_epr`` is a call of one config). ``rates``
    holds the count rates against a quiescent baseline, for a caller that
    attaches them: ``replace(report, rates=count_rates(report, baseline))``
    (see ``count_rates`` for the two forms of baseline).
    """

    config: ExperimentConfig
    records: PairTable
    cell_counts: tuple[int, int, int, int]
    cell_sums: tuple[int, int, int, int]
    cell_launches: tuple[int, int, int, int]
    singles_a: int
    singles_b: int
    coincidences: int
    off_menu: int
    systems: int
    runtime_s: float
    rates: CountRates | None = None

    @property
    def switching_active(self) -> bool:
        return self.config.switching_active

    @property
    def denominators(self) -> tuple[int, int, int, int]:
        """The N of each cell under the run's normalization convention."""
        if self.config.normalization is Normalization.SINGLES:
            return self.cell_launches
        return self.cell_counts

    def correlator(self, cell: int) -> tuple[float, int]:
        """(E, N) of one cell under the run's normalization convention."""
        denom = self.denominators[cell]
        if denom == 0:
            raise EstimationError(f"empty setting cell {CELL_LABELS[cell]}")
        return self.cell_sums[cell] / denom, denom

    @functools.cached_property
    def bell(self) -> BellEstimate | None:
        """The four correlators combined into S; None while a cell is empty."""
        if not all(self.denominators):
            return None
        e_values, n_values = zip(*(self.correlator(i) for i in range(4)))
        return BellEstimate(e_values, n_values, *chsh(e_values, n_values))


def chsh(
    e_values: tuple[float, float, float, float] | list[float],
    n_values: tuple[int, int, int, int] | list[int],
) -> tuple[float, float, float]:
    """Combine the four correlators into (S_signed, S_abs, sigma_S).

    sigma_S is the quadrature sum of the per-cell standard errors
    sqrt((1 - E^2) / N).
    """
    if len(e_values) != 4 or len(n_values) != 4:
        raise EstimationError("need exactly four correlator cells")
    var = 0.0
    s_signed = 0.0
    for i, label in enumerate(CELL_LABELS):
        n = n_values[i]
        if n <= 0:
            raise EstimationError(f"empty setting cell {label}")
        e = e_values[i]
        if not math.isfinite(e):
            raise EstimationError(f"non-finite correlator in cell {label}")
        s_signed += _CHSH_SIGNS[i] * e
        var += max(0.0, 1.0 - e * e) / n
    return s_signed, abs(s_signed), math.sqrt(var)


def pair_stream(master_seed: int, pair_id: int) -> np.random.Generator:
    """The private random stream of one pair.

    Draw order inside the stream is fixed: analyzer A's menu index,
    analyzer B's menu index, left initial position, right initial
    position. Streams are independent across pairs and reproducible from
    (master_seed, pair_id) alone. A run draws from them through
    ``pair_draws``, which seeds every pair's stream in one pass.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((master_seed, _PAIR_STREAM, pair_id))))


def _hash_step(value: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    """One use of SeedSequence's running hash constant: the hashed words and the next constant."""
    value = value ^ np.uint32(hash_const)
    hash_const = hash_const * mult & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ (value >> np.uint32(16)), hash_const


def _seed_states(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for many entropies e at once.

    ``entropy`` holds the uint32 columns of the entropy words, at most
    four. Array j of the result holds word j of every state. This is
    NumPy's ``mix_entropy`` and ``generate_state`` in wrapping uint32
    arithmetic.
    """
    hash_const = _SS_INIT_A
    pool = []
    for j in range(_SS_POOL):
        word, hash_const = _hash_step(
            entropy[j] if j < len(entropy) else np.zeros_like(entropy[0]), hash_const, _SS_MULT_A)
        pool.append(word)
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                hashed, hash_const = _hash_step(pool[src], hash_const, _SS_MULT_A)
                mixed = pool[dst] * np.uint32(_SS_MIX_L) - hashed * np.uint32(_SS_MIX_R)
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    hash_const = _SS_INIT_B
    words = []
    for k in range(8):
        word, hash_const = _hash_step(pool[k % _SS_POOL], hash_const, _SS_MULT_B)
        words.append(word.astype(np.uint64))
    # each 64-bit word is two 32-bit words, low word first
    return [words[2 * j] | words[2 * j + 1] << np.uint64(32) for j in range(4)]


class _SeedState:
    """One stream's SeedSequence state, handed to ``np.random.PCG64`` as its seed.

    ``pair_draws`` registers it as an ``ISeedSequence``; subclassing that
    here would load ``numpy.random`` whenever this module is imported.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 reads the returned buffer raw, so serve only its own request
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a PCG64 seed state is 4 uint64 words, not {n_words} {dtype}")
        return self.words


def pair_draws(master_seed: int, n: int,
               packet_width: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The draws of pairs 0..n-1 from their streams: (a_rand, b_rand, z_l0, z_r0).

    Row i equals, bit for bit, two ``integers(0, 2)`` and then
    ``sample_initial(rng, packet_width)`` from ``rng = pair_stream(master_seed, i)``.
    Only the SeedSequence hash differs: ``_seed_states`` computes it for a
    block of ``_BATCH_CHUNK`` pair ids at once, and each stream's NumPy
    ``PCG64`` takes its four state words through ``_SeedState``. A menu
    index is one bit of the stream's first 64-bit output. ``integers(0, 2)``
    is Lemire's method on one 32-bit draw, and for a range of two it never
    rejects and returns the draw's top bit. PCG64 serves an output's low
    half before its high half, so a_rand is bit 31 and b_rand bit 63.
    """
    check_seed(master_seed)
    if not 0 <= n <= _MAX_PAIRS:
        raise ValueError(f"n must lie in [0, {_MAX_PAIRS}], got {n}")
    # the entropy words of (master_seed, _PAIR_STREAM, i): the seed's
    # 32-bit words low first, then the role, then the pair id
    head = [master_seed & _MASK32] + ([master_seed >> 32] if master_seed >> 32 else [])
    head.append(_PAIR_STREAM)
    np.random.bit_generator.ISeedSequence.register(_SeedState)
    first = np.empty(n, dtype=np.uint64)
    z = np.empty((n, 2))
    for lo in range(0, n, _BATCH_CHUNK):
        ids = np.arange(lo, min(lo + _BATCH_CHUNK, n), dtype=np.uint32)
        states = np.stack(_seed_states([np.full_like(ids, word) for word in head] + [ids]), axis=1)
        for i, words in enumerate(states, lo):
            bit_gen = np.random.PCG64(_SeedState(words))
            first[i] = bit_gen.random_raw()
            z[i] = np.random.Generator(bit_gen).normal(0.0, packet_width, 2)
    a_rand = (first >> np.uint64(31) & np.uint64(1)).astype(np.int64)
    b_rand = (first >> np.uint64(63)).astype(np.int64)
    z_l0, z_r0 = z.T.copy()
    return a_rand, b_rand, z_l0, z_r0


def init_stream(master_seed: int) -> np.random.Generator:
    """Stream for the pre-run analyzer angles (one draw per side)."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((master_seed, _INIT_STREAM))))


def derived_seed(*key: int) -> int:
    """A reproducible 64-bit seed from an integer key tuple."""
    return int(np.random.SeedSequence(key).generate_state(1, dtype=np.uint64)[0])


def _launches(cfg: ExperimentConfig) -> np.ndarray:
    return np.arange(cfg.n_pairs, dtype=float) * cfg.pair_period


def setting_timelines(
    cfg: ExperimentConfig,
    menu_draws: tuple[np.ndarray, np.ndarray] | None = None,
) -> SettingTimelines:
    """Both analyzers' switching histories over the run's launches.

    A per-pair-random side starts at the angle the init stream drew and
    at launch i takes the menu angle of index ``menu_draws[side][i]``,
    drawn by pair i's stream. Static and explicit-list sides need no draw.
    """
    sides = ((cfg.switch_policy_a, cfg.angles_a, cfg.explicit_a),
             (cfg.switch_policy_b, cfg.angles_b, cfg.explicit_b))
    if any(policy is SwitchPolicy.PER_PAIR_RANDOM for policy, _, _ in sides):
        if menu_draws is None:
            raise ValueError("per-pair-random switching needs the pairs' menu draws")
        rng_init = init_stream(cfg.master_seed)
        firsts = [menu[int(rng_init.integers(0, 2))] for _, menu, _ in sides]
    launches = _launches(cfg)
    timelines = []
    for k, (policy, menu, explicit) in enumerate(sides):
        if policy is SwitchPolicy.STATIC:
            timelines.append(static_timeline(menu[0]))
        elif policy is SwitchPolicy.EXPLICIT_LIST:
            timelines.append(SideTimeline(entries=explicit))
        else:
            angles = np.array(menu)[menu_draws[k]]
            switch = angles != np.concatenate(([firsts[k]], angles[:-1]))
            timelines.append(SideTimeline(entries=np.column_stack((
                np.append(-math.inf, launches[switch]), np.append(firsts[k], angles[switch])))))
    return SettingTimelines(*timelines, separation=cfg.separation, signal_speed=cfg.signal_speed)


@dataclass(frozen=True, eq=False)
class Survival:
    """Which pairs' analyzers switched in flight, and which particles that left detected.

    Row k is pair k. ``singles_*`` and ``coincidences`` read as on an
    ``ExperimentReport``, so ``count_rates`` takes either as its baseline.
    """

    config: ExperimentConfig
    switched_a: np.ndarray
    switched_b: np.ndarray
    survived_a: np.ndarray
    survived_b: np.ndarray

    @property
    def singles_a(self) -> int:
        return int(self.survived_a.sum())

    @property
    def singles_b(self) -> int:
        return int(self.survived_b.sum())

    @property
    def coincidences(self) -> int:
        return int((self.survived_a & self.survived_b).sum())


def survival(cfg: ExperimentConfig, timelines: SettingTimelines) -> Survival:
    """Switches during each flight [launch, entry], and the losses they cause.

    A side switched when its timeline changes inside the closed window;
    ``lost_on_switch`` then decides whether its particle is lost. No pair
    stream is drawn and nothing is transported.
    """
    launches = _launches(cfg)
    t_entry = launches + cfg.flight_time
    switched_a = timelines.side_a.changes_in(launches, t_entry)
    switched_b = timelines.side_b.changes_in(launches, t_entry)
    lost = lost_on_switch(cfg.efficiency, cfg.physics.beam_speed, cfg.physics.light_speed,
                          cfg.kick_threshold)
    return Survival(
        config=cfg,
        switched_a=switched_a,
        switched_b=switched_b,
        survived_a=~(switched_a & lost),
        survived_b=~(switched_b & lost),
    )


def _menu_indices(menu: tuple[float, float], angles: np.ndarray) -> np.ndarray:
    return np.where(angles == menu[0], 0, np.where(angles == menu[1], 1, -1))


def _draw_key(cfg: ExperimentConfig) -> tuple[int, int, float]:
    return cfg.master_seed, cfg.n_pairs, cfg.physics.packet_width


def prepare_pairs(cfg: ExperimentConfig, draws: tuple | None = None) -> PairTable:
    """Draw, switch, propagate information, and apply losses for each pair.

    Pairs that lose a particle are still prepared in full; their
    trajectories remain well defined even though only surviving outcomes
    reach the detectors. The switching and loss columns come from
    ``setting_timelines`` and ``survival``, the four angle columns from
    one ``entry_reads``, which refuses the reads transport cannot honour.
    ``draws`` is this config's ``pair_draws`` tuple, drawn here when None.
    """
    a_rand, b_rand, z_l0, z_r0 = pair_draws(*_draw_key(cfg)) if draws is None else draws
    timelines = setting_timelines(cfg, (a_rand, b_rand))
    grid = cfg.transport_grid()
    setting_a, setting_b, b_seen_by_a, a_seen_by_b = entry_reads(
        timelines, cfg.mode, _launches(cfg), cfg.flight_time, grid.n_steps * grid.dt)
    detected = survival(cfg, timelines)
    return PairTable(
        pair_id=np.arange(cfg.n_pairs),
        z_l0=z_l0,
        z_r0=z_r0,
        setting_a=setting_a,
        setting_b=setting_b,
        a_index=_menu_indices(cfg.angles_a, setting_a),
        b_index=_menu_indices(cfg.angles_b, setting_b),
        b_seen_by_a=b_seen_by_a,
        a_seen_by_b=a_seen_by_b,
        switched_a=detected.switched_a,
        switched_b=detected.switched_b,
        survived_a=detected.survived_a,
        survived_b=detected.survived_b,
    )


def view_systems(table: PairTable, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """The (z_l0, z_r0, s2, c2) of every view of pairs lo..hi-1 (default: all), as a (2m, 4) array.

    Row 2k is pair lo + k's A view and row 2k + 1 its B view; a view's
    trajectory depends on these four numbers alone.
    """
    part = slice(lo, hi)
    views = ((table.setting_a[part], table.b_seen_by_a[part]),
             (table.a_seen_by_b[part], table.setting_b[part]))
    with np.errstate(over="ignore"):
        diff = np.column_stack([own - seen for own, seen in views]).ravel()
    if np.isinf(diff).any():
        i, k = divmod(int(np.argmax(np.isinf(diff))), 2)
        own, seen = (float(angles[i]) for angles in views[k])
        raise ConfigError(f"pair {lo + i}: side {'AB'[k]}'s view holds angles {own!r} and "
                          f"{seen!r}, whose difference overflows")
    # the weights depend on the angle difference alone, and weights() makes
    # this same subtraction; math.sin runs once per distinct difference
    # because np.sin may differ from it in the last bit
    distinct, inverse = np.unique(diff, return_inverse=True)
    weights = np.array([SettingPair(d, 0.0).weights()
                        for d in distinct.tolist()]).reshape(-1, 2)
    return np.column_stack((np.repeat(table.z_l0[part], 2), np.repeat(table.z_r0[part], 2),
                            weights[inverse]))


def transport_views(
    tables: list[PairTable],
    configs: list[ExperimentConfig],
    record_every: int = 0,
    needed: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Transport each distinct view system of the tables once; returns (z_l, z_r, views).

    Table k comes from ``configs[k]``; the configs must share physics and
    dt. ``needed[k]``, when given, is a mask over table k's pairs, and
    only the views of those pairs are transported (all, when ``needed``
    is None). The ``view_systems`` rows are merged one block of
    ``_BATCH_CHUNK`` pair indices at a time, so only the results grow
    with the run: a block's needed rows, table by table, are kept once
    per bit pattern in order of first appearance, numbered after the
    earlier blocks' systems. A row's only duplicates are its pair's other
    view and the same pair in another table (equal draws need an equal
    seed and pair id), so this keeps the systems one merge of all rows
    would. Each block's new systems go through the transport in one
    call of at most 2 * ``_BATCH_CHUNK`` * len(configs) systems (32 768
    for the four configs of ``table1_configs``); systems are independent,
    so neither blocks nor batch-mates change a result. ``views[k]`` is
    an (n, 2) array: the system of each pair's A and B view in table k,
    or -1 for a pair not needed. With ``record_every`` > 0,
    ``integrate_batch`` runs the full transit and z_l, z_r are (recorded
    step, system) arrays; otherwise they are the exits of
    ``integrate_retiring``. A divergence is raised again named by config
    (in a batch of several), pair, view and mode; its ``system_index`` is
    the failed system's number, the column of z_l and z_r it would fill.
    """
    head = configs[0]
    for k, cfg in enumerate(configs):
        if cfg.physics != head.physics or cfg.dt != head.dt:
            raise ConfigError(f"configs in one transport must share physics and dt; "
                              f"config {k} differs from config 0")
    coeff = derive_coefficients(head.physics)
    icfg = head.transport_grid(record_every)
    # retired systems have no later steps to record
    integrate = integrate_batch if record_every else integrate_retiring
    offsets = np.cumsum([0] + [2 * len(table) for table in tables])
    wanted = None if needed is None else np.repeat(np.concatenate(needed), 2)
    place = np.full(offsets[-1], -1)
    exits = []  # (z_l, z_r) of each block
    start = 0  # the block's first system number
    try:
        for lo in range(0, max(map(len, tables)), _BATCH_CHUNK):
            hi = lo + _BATCH_CHUNK
            at = np.concatenate([np.arange(2 * lo, 2 * min(hi, len(table))) + off
                                 for table, off in zip(tables, offsets.tolist())])
            rows = np.concatenate([view_systems(table, lo, hi) for table in tables])
            if wanted is not None:
                rows, at = rows[wanted[at]], at[wanted[at]]
            keep, first = _first_appearances(rows)
            place[at] = start + first
            new = rows[keep]
            del rows, at, first
            exits.append(integrate(*new.T, coeff, icfg))
            start += len(new)
    except IntegrationDiverged as err:
        index = start + (err.system_index or 0)
        row = int(np.argmax(place == index))  # the system's first appearance
        k = int(np.searchsorted(offsets, row, side="right")) - 1
        pair, side = divmod(row - int(offsets[k]), 2)
        # the offsets are even, so row ^ 1 is the pair's other view
        view = "A and B" if place[row] == place[row ^ 1] else "AB"[side]
        where = f"config {k}, " if len(configs) > 1 else ""
        raise IntegrationDiverged(
            step=err.step, system_index=index,
            detail=f"{where}pair {pair}, view {view}, {configs[k].mode.value} mode") from err
    # one block's results are returned as they are, not copied
    z_l, z_r = exits[0] if len(exits) == 1 else (
        np.concatenate(side, axis=-1) for side in zip(*exits))
    return z_l, z_r, [views.reshape(-1, 2) for views in np.split(place, offsets[1:-1])]


def _first_appearances(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct row's first index, in order, and every row's place among them.

    A row's bit pattern is its key, so -0.0 and 0.0 differ. A stable
    sort of the keys puts each distinct row's first appearance first.
    ``np.unique`` would hold three copies of the rows at once, which
    raised the peak RSS of a 20 000-pair run by about 2 MiB.
    """
    bits = rows.view(np.uint64)
    order = np.lexsort(bits.T)
    ordered = bits[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    del ordered
    keep = np.sort(order[starts])
    place = np.empty_like(order)
    place[order] = np.searchsorted(keep, order[starts])[np.cumsum(starts) - 1]
    return keep, place


def _counted(table: PairTable) -> np.ndarray:
    """The pairs whose product enters a cell: both particles detected, both settings on-menu."""
    return table.survived_a & table.survived_b & (table.a_index >= 0) & (table.b_index >= 0)


def _tally(table: PairTable, products: np.ndarray) -> dict:
    """A table's cells, singles, coincidences and off-menu count.

    ``products[k]`` is pair k's addend to its cell sum, read only where
    ``_counted`` holds. Sums keep its dtype (exact ints for o_A*o_B).
    """
    on_menu = (table.a_index >= 0) & (table.b_index >= 0)
    cell = 2 * table.a_index + table.b_index
    counted = _counted(table)
    sums = np.zeros(4, dtype=products.dtype)
    np.add.at(sums, cell[counted], products[counted])
    return dict(
        cell_counts=tuple(np.bincount(cell[counted], minlength=4).tolist()),
        cell_sums=tuple(sums.tolist()),
        cell_launches=tuple(np.bincount(cell[on_menu], minlength=4).tolist()),
        singles_a=int(table.survived_a.sum()),
        singles_b=int(table.survived_b.sum()),
        coincidences=int((table.survived_a & table.survived_b).sum()),
        off_menu=len(table) - int(on_menu.sum()),
    )


def _outcomes(z: np.ndarray, systems: np.ndarray) -> np.ndarray:
    """The exit sign of each view's system, and 0 where the view was not transported."""
    outcome = np.zeros(len(systems), dtype=int)
    hit = systems >= 0
    outcome[hit] = sign_outcome(z[systems[hit]])
    return outcome


def run_batch(configs: list[ExperimentConfig],
              every_outcome: bool = True) -> list[ExperimentReport]:
    """Run several configs through one ``transport_views`` of their distinct systems.

    Report k equals ``run_epr(configs[k])`` alone in every number, since
    systems are independent; its ``systems`` and ``runtime_s`` belong to
    the whole call. With ``every_outcome`` False only the pairs that
    enter a cell (``_counted``) are transported, which leaves every
    statistic as it is; the other pairs' outcomes are 0, so such records
    cannot be written as events. ``systems`` then counts the systems of
    the counted pairs.
    """
    start = time.perf_counter()
    # each distinct key is drawn once; table1's two lossy rows share one
    draws = {key: pair_draws(*key) for key in dict.fromkeys(map(_draw_key, configs))}
    tables = [prepare_pairs(cfg, draws[_draw_key(cfg)]) for cfg in configs]
    # the menu draws are read only by prepare; free them before transport
    del draws
    needed = None if every_outcome else [_counted(table) for table in tables]
    z_l, z_r, views = transport_views(tables, configs, needed=needed)
    tables = [replace(table, outcome_a=_outcomes(z_l, view[:, 0]),
                      outcome_b=_outcomes(z_r, view[:, 1]))
              for table, view in zip(tables, views)]
    tallies = [_tally(t, t.outcome_a * t.outcome_b) for t in tables]
    runtime_s = time.perf_counter() - start
    return [ExperimentReport(config=cfg, records=table, **tally, systems=len(z_l),
                             runtime_s=runtime_s)
            for cfg, table, tally in zip(configs, tables, tallies)]


def run_epr(cfg: ExperimentConfig, every_outcome: bool = True) -> ExperimentReport:
    """Execute a full run and aggregate its statistics: ``run_batch`` of one config."""
    return run_batch([cfg], every_outcome)[0]


def count_rates(switched: ExperimentReport | Survival,
                quiescent: ExperimentReport | Survival) -> CountRates:
    """Singles and coincidence rates of a switching run against a baseline.

    The baseline must come from a bench with both analyzers static;
    rates are per launch, and the unprimed values belong to the baseline.
    Only the configs, singles and coincidences are read, so the baseline
    may be a full ``run_epr(quiet)`` with ``quiet = quiescent_config(cfg)``
    or, as ``run-epr --rates`` forms it with no draw and no transport,
    ``survival(quiet, setting_timelines(quiet))``.
    """
    if quiescent is None:
        raise EstimationError("count rates need a quiescent baseline run")
    if quiescent.config.switching_active:
        raise EstimationError("the quiescent baseline must not have switching enabled")
    n_q = quiescent.config.n_pairs
    n_s = switched.config.n_pairs
    q1_a = quiescent.singles_a / n_q
    q1_b = quiescent.singles_b / n_q
    q1p_a = switched.singles_a / n_s
    q1p_b = switched.singles_b / n_s
    q1 = 0.5 * (q1_a + q1_b)
    if q1 <= 0.0:
        raise EstimationError("quiescent baseline recorded no singles")
    c2 = quiescent.coincidences / n_q
    if c2 <= 0.0:
        raise EstimationError("quiescent baseline recorded no coincidences")
    return CountRates(
        q1=q1,
        q1p=0.5 * (q1p_a + q1p_b),
        c2=c2,
        c2p=switched.coincidences / n_s,
        q1_a=q1_a,
        q1_b=q1_b,
        q1p_a=q1p_a,
        q1p_b=q1p_b,
    )


def quiescent_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """The same bench with both analyzers parked (for rate baselines)."""
    return replace(
        cfg,
        switch_policy_a=SwitchPolicy.STATIC,
        switch_policy_b=SwitchPolicy.STATIC,
        explicit_a=(),
        explicit_b=(),
    )


def report_json_dict(report: ExperimentReport) -> dict:
    """The canonical JSON form of a report."""
    bell = report.bell
    if bell is not None:
        per_setting = bell.per_setting()
        s_signed, s_abs, sigma_s = bell.s_signed, bell.s_abs, bell.sigma_s
    else:
        per_setting = {
            label: {"E": None, "N": 0} for label in CELL_LABELS
        }
        s_signed = s_abs = sigma_s = None
    r = report.rates
    rates = ({"Q1": r.q1, "Q1p": r.q1p, "C2": r.c2, "C2p": r.c2p} if r is not None
             else dict.fromkeys(("Q1", "Q1p", "C2", "C2p")))
    return {
        "config_echo": report.config.to_dict(),
        "per_setting": per_setting,
        "S_signed": s_signed,
        "S_abs": s_abs,
        "sigma_S": sigma_s,
        **rates,
        "runtime_s": report.runtime_s,
        "seed": report.config.master_seed,
    }


EVENT_HEADER = ("pair_id,setting_A,setting_B,effective_B_seen_by_A,"
                "effective_A_seen_by_B,outcome_A,outcome_B,survived_A,survived_B")


def _angle_text(angles: np.ndarray) -> list[str]:
    """The repr of each angle, formed once per distinct bit pattern (so -0.0 keeps its own)."""
    bits, inverse = np.unique(angles.view(np.uint64), return_inverse=True)
    return np.array([repr(a) for a in bits.view(np.float64).tolist()],
                    dtype=object)[inverse].tolist()


def write_events_csv(report: ExperimentReport, path) -> None:
    """One line per launched pair, in launch order; every pair must have been transported.

    Lines are formed one block of ``_BATCH_CHUNK`` pairs at a time.
    """
    t = report.records
    missing = (t.outcome_a == 0) | (t.outcome_b == 0)
    if missing.any():
        raise ValueError(f"pair {int(np.argmax(missing))} was not transported (outcome 0); "
                         f"events need run_batch(..., every_outcome=True)")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(EVENT_HEADER + "\n")
        for lo in range(0, len(t), _BATCH_CHUNK):
            part = slice(lo, lo + _BATCH_CHUNK)
            columns = zip(t.pair_id[part].tolist(),
                          *(_angle_text(angles[part]) for angles in (
                              t.setting_a, t.setting_b, t.b_seen_by_a, t.a_seen_by_b)),
                          *(flags[part].astype(int).tolist() for flags in (
                              t.outcome_a, t.outcome_b, t.survived_a, t.survived_b)))
            fh.writelines(f"{i},{a},{b},{b_seen},{a_seen},{o_a},{o_b},{s_a},{s_b}\n"
                          for i, a, b, b_seen, a_seen, o_a, o_b, s_a, s_b in columns)


TABLE1_ROWS = (
    ("local/singles/efficient", InformationMode.LOCAL,
     Efficiency.EFFICIENT, Normalization.SINGLES, 0),
    ("local/coincidences/inefficient", InformationMode.LOCAL,
     Efficiency.INEFFICIENT, Normalization.COINCIDENCES, 1),
    ("nonlocal/singles/efficient", InformationMode.NONLOCAL,
     Efficiency.EFFICIENT, Normalization.SINGLES, 2),
    ("nonlocal/coincidences/inefficient", InformationMode.NONLOCAL,
     Efficiency.INEFFICIENT, Normalization.COINCIDENCES, 1),
)


@dataclass(frozen=True)
class TableRow:
    """One summary-table row: its label, estimate and the exact config it ran.

    ``runtime_s`` and ``systems`` are those of its replicate's ``run_batch``.
    """

    label: str
    bell: BellEstimate
    runtime_s: float
    config: ExperimentConfig
    systems: int

    @property
    def seed(self) -> int:
        return self.config.master_seed


def table1_configs(master_seed: int, n_pairs: int, replicate: int = 0) -> list[ExperimentConfig]:
    """The configs of the four ``TABLE1_ROWS``, in order, for one replicate.

    Each row has its own derived seed; the two inefficient rows
    deliberately share one, so their agreement (they integrate the same
    surviving pairs to the same outcomes) is visible in the output.
    Inefficient rows turn the kick threshold off so every switched magnet
    loses its particle.
    """
    return [ExperimentConfig(n_pairs=n_pairs, mode=mode, efficiency=efficiency,
                             normalization=normalization,
                             kick_threshold=0.0 if efficiency is Efficiency.INEFFICIENT else 1.0e-3,
                             master_seed=derived_seed(master_seed, replicate, seed_key))
            for _, mode, efficiency, normalization, seed_key in TABLE1_ROWS]


def table1_run(
    master_seed: int = DEFAULT_SEED,
    n_pairs: int = 4000,
    replicate: int = 0,
) -> list[TableRow]:
    """The four-row summary table over both modes and both loss settings, in one run_batch."""
    rows: list[TableRow] = []
    # a table prints only the cells, so it transports only the pairs they count
    reports = run_batch(table1_configs(master_seed, n_pairs, replicate), every_outcome=False)
    for (label, *_), report in zip(TABLE1_ROWS, reports):
        if report.bell is None:
            raise EstimationError(f"row {label} left an empty setting cell")
        rows.append(TableRow(label=label, bell=report.bell, runtime_s=report.runtime_s,
                             config=report.config, systems=report.systems))
    return rows
