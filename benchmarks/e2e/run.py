"""One end-to-end benchmark of the X-SET reproduction.

    python3 benchmarks/e2e/run.py                     # five workloads, then the traced run
    python3 benchmarks/e2e/run.py --workload svc-light --seed 3 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --smoke

Every workload runs in its own subprocess and process group under a hard
wall limit, so that the benchmark survives the code it measures: a hung
workload has its group killed and its leftover ``/dev/shm/xset-*``
segments removed, and counts as failed.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import datetime
import glob
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: workload name → module holding its ``Workload`` class
WORKLOADS = {
    "svc-light": "wl_svc_light",
    "svc-burst": "wl_svc_burst",
    "svc-dynamic": "wl_svc_dynamic",
    "cluster-4shard": "wl_cluster_4shard",
    "sim-event": "wl_sim_event",
}
#: measured seconds per run when ``--seconds`` is not given
DEFAULT_SECONDS = 15.0
#: ``--smoke`` measures for this share of the time
SMOKE_SHARE = 1 / 20
#: the contract's limit is 180 s per run; leave room to clean up
MAX_WALL_LIMIT = 170.0

PROGRESS, RESULT = "@progress ", "@result "


# -- child: one workload, in its own process -------------------------------


def child_main(args) -> int:
    import harness

    import_s = harness.import_repro()
    rec = harness.Recorder()

    def progress(attempted: int, failed: int) -> None:
        print(
            PROGRESS + json.dumps({"attempted": attempted, "failed": failed}),
            flush=True,
        )

    if args.trace:
        import suite

        result = suite.run(
            args.workload, args.seed, args.seconds, rec,
            import_s=import_s, progress=progress, smoke=args.smoke,
        )
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / "trace.json").write_text(json.dumps(rec.spans))
    else:
        module = __import__(args.module or WORKLOADS[args.workload])
        sizes = {"blocks": 1, "setups": 1} if args.smoke else {}
        result = harness.measure(
            module.Workload, args.seed, args.seconds, rec,
            import_s=import_s, progress=progress, **sizes,
        )
    print(RESULT + json.dumps(result), flush=True)
    return 0


# -- parent: isolation, watchdog, reporting --------------------------------


def group_pids(pgid: int) -> list[int]:
    """Live (not zombie) processes in process group ``pgid``, from ``/proc``."""
    pids = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            fields = Path(stat).read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] not in "ZX":
            pids.append(int(stat.split("/")[2]))
    return pids


def reap_group(pgid: int, pids: set[int]) -> list[str]:
    """Kill what is left of a workload's group; unlink its shm segments.

    Segment names carry the creator's pid (``xset-<pid hex>-…``), so only
    segments of this workload's processes are touched.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + 5.0
    while group_pids(pgid) and time.monotonic() < deadline:
        time.sleep(0.01)
    removed = []
    for pid in pids:
        for seg in glob.glob(f"/dev/shm/xset-{pid:x}-*"):
            try:
                os.unlink(seg)
                removed.append(seg)
            except OSError:
                pass
    return removed


def run_isolated(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    *,
    smoke: bool = False,
    module: str | None = None,
    wall_limit: float | None = None,
) -> dict:
    """Run one workload in a subprocess; always returns a result dict.

    A workload that hangs past ``wall_limit``, crashes or prints no
    result is reported with ``hung``/``crashed`` set: every operation
    after its last completed block — and at least one — counts as failed.
    """
    if wall_limit is None:
        wall_limit = min(MAX_WALL_LIMIT, 45.0 + 4.0 * seconds)
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        cmd.append("--smoke")
    if module:
        cmd += ["--module", module]
    # a fixed hash seed: string hashing otherwise differs per process and
    # moves interpreter-bound timings by several percent between runs
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, start_new_session=True,
        cwd=str(ROOT), env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    pids = {proc.pid}
    hung = False
    try:
        out, _ = proc.communicate(timeout=wall_limit)
    except subprocess.TimeoutExpired:
        hung = True
        pids.update(group_pids(proc.pid))
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
    pids.update(group_pids(proc.pid))
    leaked = reap_group(proc.pid, pids)
    result, last = None, {"attempted": 0, "failed": 0}
    for line in out.splitlines():
        if line.startswith(RESULT):
            result = json.loads(line[len(RESULT):])
        elif line.startswith(PROGRESS):
            last = json.loads(line[len(PROGRESS):])
        else:
            print(line)
    if result is None or proc.returncode != 0:
        # the unfinished block's operations were never confirmed: count
        # one more than what completed, all of the remainder failed
        attempted = last["attempted"] + 1
        failed = last["failed"] + 1
        result = {
            "workload": workload, "seed": seed, "hung": hung,
            "crashed": not hung, "returncode": proc.returncode,
            "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted if last["attempted"] else 1.0,
            "correct": False, "unstable": True, "metrics": {},
        }
    result["pid"] = proc.pid
    result["leaked_shm_removed"] = leaked
    return result


def meta(seed: int, seconds: float) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "git_sha": sha,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
        "seconds": seconds,
    }


def print_workload(result: dict) -> None:
    name = result["workload"]
    flag = ""
    if result.get("hung") or result.get("crashed"):
        flag = "  ** HUNG **" if result.get("hung") else "  ** CRASHED **"
    elif result["unstable"]:
        flag = "  ** UNSTABLE: host drifted, numbers unresolved **"
    print(
        f"\n[{name}] attempted {result['attempted']}, failed "
        f"{result['failed']} (failed_share {result['failed_share']:.4f})"
        f"{flag}"
    )
    for metric, entry in sorted(result["metrics"].items()):
        wide = " (block IQR over bound)" if metric in result.get(
            "unstable_metrics", ()
        ) else ""
        print(
            f"  {metric:28s} {entry['value']:16.6f} {entry['unit']:8s}"
            f" iqr {entry['iqr']:.6f}{wide}"
        )
    for metric, entry in sorted(result.get("info", {}).items()):
        print(f"  ({metric:26s} {entry['value']:16.6f}  information only)")
    if "calib_drift" in result:
        print(f"  (calib drift across blocks  {result['calib_drift']:.3f})")
    if "sim_stats_digest" in result:
        print(f"  sim.stats_digest {result['sim_stats_digest']}")


def print_layers(result: dict, units: dict[str, str]) -> None:
    print(
        f"\n[traced run, {result['workload']}] attempted "
        f"{result['attempted']}, failed {result['failed']}"
    )
    paper = result.get("paper_reference", {})
    for metric, value in sorted(result.get("per_layer", {}).items()):
        ref = f"  (paper {paper[metric]})" if metric in paper else ""
        print(f"  {metric:40s} {value:18.6f} {units.get(metric, '')}{ref}")
    if "sim_stats_digest" in result:
        print(f"  sim.stats_digest {result['sim_stats_digest']}")


def contract_line(result: dict, trace: int, spec: dict) -> str:
    """The last line of standard output the driver reads."""
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = result.get("per_layer", {})
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {k: v["value"] for k, v in result["metrics"].items()}
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": max(int(result["attempted"]), 1),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help=" | ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, nargs="?", const=1, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", type=Path, default=OUT_DIR / "result.json")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--module", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = DEFAULT_SECONDS * (SMOKE_SHARE if args.smoke else 1)
    if args.child:
        return child_main(args)
    if args.workload is not None and args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program to measure under {ROOT}/src",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    doc = {"meta": meta(args.seed, args.seconds), "workloads": {}}
    results = []
    if args.workload:
        trace = args.trace or 0
        result = run_isolated(
            args.workload, args.seed, args.seconds, trace, smoke=args.smoke
        )
        results.append(result)
        if trace:
            doc["traced"] = result
            print_layers(result, layer_units)
        else:
            doc["workloads"][args.workload] = result
            print_workload(result)
    else:
        if args.trace in (None, 0):
            for name in WORKLOADS:
                result = run_isolated(
                    name, args.seed, args.seconds, 0, smoke=args.smoke
                )
                doc["workloads"][name] = result
                results.append(result)
                print_workload(result)
        if args.trace in (None, 1):
            result = run_isolated(
                "svc-light", args.seed, args.seconds, 1, smoke=args.smoke
            )
            doc["traced"] = result
            results.append(result)
            print_layers(result, layer_units)
    doc["meta"]["calib_ms"] = {
        name: r.get("calib_ms") for name, r in doc["workloads"].items()
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1))
    print(f"\nwrote {args.out}")
    broken = [r for r in results if r.get("hung") or r.get("crashed")]
    if args.workload:
        print(contract_line(results[0], args.trace or 0, spec))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
