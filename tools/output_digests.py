"""Print one sha256 per output file, stdout and stderr of the benchmark's workloads.

    python3 tools/output_digests.py [--root TREE] [--seeds 0 101 ...] > digests.json

Runs each operation of ``table1``, ``rates_fast_beam`` and
``trajectories_spring`` (as ``perfbench/workloads.py`` lists them) once
per seed through ``bohm_epr.cli.main`` of the source tree TREE (default:
the checkout this script lives in), in a temporary directory. Before
hashing, it drops the keys ``runtime_s``, ``started_utc`` and
``finished_utc`` from every JSON object at any depth, and replaces the
temporary directory's path with ``<tmp>`` in stdout, stderr and every file;
a JSON file is hashed as its stripped value, re-serialised in key order,
so a change of its layout alone does not show. Two trees give the same
outputs on these workloads when their JSON digests compare equal:

    python3 tools/output_digests.py --root ../parent > before.json
    python3 tools/output_digests.py > after.json
    diff before.json after.json

The workload list is read from ``TREE/perfbench/workloads.py``, so both
trees run the operations that tree's benchmark runs. Of those only
``rates_fast_beam`` leaves the first block of ``_BATCH_CHUNK`` (4096)
pairs, and it transports every pair of one config, so the script also
runs the fixed operations of ``BLOCKS`` under the name ``blocks``:
``table1`` at 9000 pairs (three blocks), a 9000-pair local ``run-epr``
that transports only the counted pairs (three blocks) and a 5000-pair
local dump (two blocks), at the program's default bench, and
``hooke-demo`` with all four couplings on one shared grid whose last
block of 256 rows is partial (it takes no seed, so every seed repeats it).

No workload switches from an explicit list, so the operations of
``EXPLICIT`` run under the name ``explicit``, each from an INI file
written into the temporary directory: a local run with both sides on
explicit lists and ``--events``, and a run that is refused because news
of A's 12 ms switch reaches B inside pair 2's magnet transit. A refused
run's stderr and exit code are digested like any other's.

The operations of ``FAILURES`` run under the name ``failures``: a
``table1`` too small to fill every setting cell, a ``hooke-demo`` that
diverges, and under ``hooke-demo-all`` a ``hooke-demo`` whose four
couplings share one grid while the expanded one diverges, so its stdout
keeps the lines of the couplings before it; each of them exits 3. For
every operation the script also digests whether its output directory
exists afterwards.

numpy picks the loops of ufuncs such as ``exp``, ``sinh`` and ``cosh``
by the CPU's SIMD target, and their last bits may differ between loops.
numpy reads ``NPY_DISABLE_CPU_FEATURES`` when it is imported, so one
``diff`` shows whether the outputs hold with those targets off:

    python3 tools/output_digests.py > native.json
    NPY_DISABLE_CPU_FEATURES=X86_V3 python3 tools/output_digests.py > baseline.json
    diff native.json baseline.json

numpy ignores a name it does not know, so when the variable is set the
script prints the target float64 ``sinh`` ran at to stderr.
``python3 -c "import numpy; numpy.show_runtime()"`` lists the targets the
CPU offers.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

VOLATILE = ("runtime_s", "started_utc", "finished_utc")
# (label, argv without --seed and --out, whether it takes --seed) of the
# operations that cross a block boundary
BLOCKS = (
    ("table1", ("table1", "--pairs", "9000"), True),
    ("run-epr", ("run-epr", "--pairs", "9000", "--mode", "local"), True),
    ("dump-trajectories", ("dump-trajectories", "--mode", "local", "--pairs", "5000",
                           "--record-every", "300"), True),
    ("hooke-demo", ("hooke-demo", "--coupling", "all", "--dt", "0.001", "--periods", "2.37"),
     False),
)
# (label, INI text, argv without --config, --seed and --out) of the
# operations that read explicit switching lists
EXPLICIT = (
    ("run-epr", "[experiment]\nmode = local\nswitch_policy_a = explicit_list\n"
                "explicit_a = -1.0:0.0; 0.0205:1.5707963267948966; 0.047:0.0\n"
                "switch_policy_b = explicit_list\nexplicit_b = -1.0:0.7853981633974483; "
                "0.0305:2.356194490087622; 0.0805:0.7853981633974483\n",
     ("run-epr", "--pairs", "40", "--events")),
    ("refused", "[experiment]\nmode = local\nswitch_policy_a = explicit_list\n"
                "explicit_a = -1.0:0.0; 0.012:1.5707963267948966\nswitch_policy_b = static\n",
     ("run-epr", "--pairs", "4")),
)
# (label, argv without --seed and --out, whether it takes --seed) of the
# operations that fail numerically
FAILURES = (
    ("table1", ("table1", "--pairs", "4"), True),
    ("hooke-demo", ("hooke-demo", "--coupling", "expanded", "--tau", "1e10", "--periods", "1"),
     False),
    ("hooke-demo-all", ("hooke-demo", "--coupling", "all", "--tau", "1e10", "--periods", "1"),
     False),
)
FIXED = {"blocks": BLOCKS, "failures": FAILURES}
DEFAULT_SEEDS = (0, 101, 614, 2**64 - 1)


def _strip(doc):
    """The JSON value ``doc`` without the VOLATILE keys at any depth."""
    if isinstance(doc, dict):
        return {k: _strip(v) for k, v in doc.items() if k not in VOLATILE}
    if isinstance(doc, list):
        return [_strip(v) for v in doc]
    return doc


def _digest(data: bytes, tmp: str, is_json: bool) -> str:
    data = data.replace(tmp.encode(), b"<tmp>")
    if is_json:
        data = json.dumps(_strip(json.loads(data))).encode()
    return hashlib.sha256(data).hexdigest()


def _operations(workloads, workload: str, seed: int, tmp: str, out_root: str) -> list:
    """One workload's operations at one seed; ``explicit`` and FIXED's groups are this script's."""
    if workload in FIXED:
        return [workloads.Operation(
                    label, (*argv, *(("--seed", str(seed)) if seeded else ()), "--out", out), out)
                for label, argv, seeded in FIXED[workload]
                for out in [os.path.join(out_root, label)]]
    if workload != "explicit":
        return workloads.operations(workload, seed, tmp, out_root)
    ops = []
    for label, ini, argv in EXPLICIT:
        config, out = os.path.join(tmp, f"{label}.ini"), os.path.join(out_root, label)
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(ini)
        ops.append(workloads.Operation(
            label, (*argv, "--config", config, "--seed", str(seed), "--out", out), out))
    return ops


def digests(root: str, seeds) -> dict:
    """{workload: {seed: {label: {"exit": code, "out_dir": exists, "stdout": sha, "stderr": sha,
    "<file>": sha}}}}.

    A refused operation may leave no output directory; it then digests no file.
    """
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import bohm_epr.cli as cli
    import workloads
    result = {}
    for workload in (*workloads.WORKLOADS, *FIXED, "explicit"):
        per_seed = result[workload] = {}
        for seed in seeds:
            ops = per_seed[str(seed)] = {}
            with tempfile.TemporaryDirectory() as tmp:
                out_root = os.path.join(tmp, "out")
                for op in _operations(workloads, workload, seed, tmp, out_root):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(list(op.argv))
                    entry = ops[op.label] = {
                        "exit": code,
                        "out_dir": os.path.isdir(op.out_dir),
                        "stdout": _digest(out.getvalue().encode(), tmp, False),
                        "stderr": _digest(err.getvalue().encode(), tmp, False)}
                    names = os.listdir(op.out_dir) if entry["out_dir"] else []
                    for name in sorted(names):
                        with open(os.path.join(op.out_dir, name), "rb") as fh:
                            entry[name] = _digest(fh.read(), tmp, name.endswith(".json"))
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   help="source tree to run (default: this checkout)")
    p.add_argument("--seeds", type=int, nargs="+", default=DEFAULT_SEEDS, metavar="SEED")
    args = p.parse_args()
    if os.environ.get("NPY_DISABLE_CPU_FEATURES"):
        from numpy.lib.introspect import opt_func_info
        [loop] = opt_func_info(func_name="^sinh$", signature="float64")["sinh"].values()
        print(f"float64 sinh runs at {loop['current']}", file=sys.stderr)
    json.dump(digests(os.path.abspath(args.root), args.seeds), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
