"""The cfree benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload words --seed 1 --seconds 15 --trace 0

Run from the root of a checkout (the directory holding ``src/cfree`` and
``BENCHMARK.json``).  The workload runs in a child process with ``src``
on its path; this process reads the child's peak resident memory with
getrusage once it has ended.  Output: one JSON line with the full run
record (every end-to-end metric, ``error_rate`` included, and what was
run), then, as the last line, ``{"correct", "attempted", "failed",
"metrics"}`` with the metrics BENCHMARK.json declares: the end-to-end
ones with ``--trace 0``, the per-layer ones with ``--trace 1``.

Exit status: 0 when every answer was checked and right (a query that
failed, such as a CLI crash, is counted in ``failed`` and
``error_rate``), 1 on a wrong answer, 2 when the checkout is incomplete
or the arguments are bad, 3 when the worker died or ran out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys

WORKLOADS = ("engine", "words", "transforms", "cli")
WORKER_TIMEOUT_S = 170


def _fail(code, message):
    print("perfbench: %s" % message, file=sys.stderr)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cfree", "__init__.py")):
        return _fail(2, "no src/cfree here; run from the root of a cfree checkout")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(2, "cannot read BENCHMARK.json: %s" % exc)
    wanted = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    command = [sys.executable, worker, args.workload, str(args.seed), repr(args.seconds),
               str(args.trace)]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, cwd=root, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return _fail(3, "worker ran past %d s" % WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        return _fail(3, "worker exited with %d" % proc.returncode)
    lines = out.strip().splitlines()
    payload = json.loads(lines[-1])
    record, result = payload["record"], payload["result"]

    metrics = result["metrics"]
    if not args.trace:
        # The worker is this process's only child, and it waits for its own
        # children, so this is the largest resident set among them.
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}
    record["metrics"] = metrics
    missing = [name for name in wanted if name not in metrics]
    if missing:
        return _fail(3, "metrics missing from the run: %s" % ", ".join(missing))
    misunit = ["%s (%s, declared %s)" % (name, metrics[name]["unit"], unit)
               for name, unit in wanted.items() if metrics[name]["unit"] != unit]
    if misunit:
        return _fail(3, "metrics in another unit than declared: %s" % ", ".join(misunit))
    result["metrics"] = {name: metrics[name] for name in wanted}
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
