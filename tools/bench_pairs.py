"""Run the benchmark in two checkouts, alternating, and compare them.

Each pair runs ``bench/run.py --trace 0`` once in the base checkout and
once in the change's, with the same workload and seed and the run length
``run_seconds`` of the change's BENCHMARK.json; pair i uses seed
FIRST_SEED + i, and the side that runs first alternates from pair to
pair, so both meet the same drift in machine speed. The base can be any
other checkout of the repository, for example a ``git worktree`` of the
parent commit. Run from anywhere:

    python tools/bench_pairs.py BASE CHANGE --workload master_fock4 \\
        --pairs 10 --first-seed 91

For each end-to-end metric of BENCHMARK.json it prints both sides' first
quartile, median and third quartile, the number of pairs the change
wins, how far the change's median is better than the base's (its
shift), the base's interquartile range (IQR), and whether a gain holds:
the change wins at least nine pairs in ten with a shift above that IQR,
every change run is correct, and the change fails no larger share of
its tasks than the base. A run that is not correct or has failed tasks
is reported and its pair kept; a pair in which either run exits with an
error (as a warm-up failure does) is reported and left out. The runs
themselves write what ``bench/run.py`` writes in their own checkout.

With ``--write FILE`` (a ``BENCH_<n>.json`` at the repository root) the
tool also runs ``bench/run.py --trace 1`` once per side, with the first
seed, and records in FILE under the workload's name what the table
shows, per end-to-end metric, and the per-layer metrics of
BENCHMARK.json from those two traced runs, with the commits of both
checkouts and the host from their provenance. An existing FILE keeps
its other workloads, so one run per workload fills it:

    python tools/bench_pairs.py BASE . --workload master_fock4 \\
        --pairs 10 --first-seed 91 --write BENCH_<n>.json
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

# Share of pairs the change must win for a claimed gain.
WIN_SHARE = 0.9

# (q1, median, q3) as ``bench/run.py --compare`` gives them.
_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"
_SPEC = importlib.util.spec_from_file_location("bench_run", _RUN)
_bench_run = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_bench_run)
quartiles = _bench_run.quartiles
# The prefix of the provenance line that ``bench/run.py`` prints.
_PROVENANCE = "# provenance "


def wins(base, change, better):
    """Pairs in which the change is strictly better; ``better`` is "lower" or "higher"."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (b - c) > 0 for b, c in zip(base, change))


def summary(base, change, better):
    """Quartiles of both sides, the change's wins, and whether a gain holds.

    A gain holds when the change wins at least ``WIN_SHARE`` of the pairs
    and its median is better than the base's by more than the base's
    interquartile range.
    """
    bq, cq = quartiles(base), quartiles(change)
    won = wins(base, change, better)
    shift = (bq[1] - cq[1]) if better == "lower" else (cq[1] - bq[1])
    return {"base": bq, "change": cq, "wins": won, "pairs": len(base),
            "shift": shift, "base_iqr": bq[2] - bq[0],
            "gain": won >= WIN_SHARE * len(base) and shift > bq[2] - bq[0]}


def sound(base_runs, change_runs):
    """Whether every change run is correct and the change fails no larger
    share of its attempted tasks than the base; a gain needs both."""
    def failed_share(runs):
        return (sum(r["failed"] for r in runs)
                / max(1, sum(r["attempted"] for r in runs)))
    return (all(r["correct"] for r in change_runs)
            and failed_share(change_runs) <= failed_share(base_runs))


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0):
    """The last output line of one run, parsed, with the run's provenance
    line under "provenance"; None if it failed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        print(f"# {checkout}: seed {seed} exited {proc.returncode}: {last}")
        return None
    out = json.loads(lines[-1])
    out["provenance"] = next((json.loads(line[len(_PROVENANCE):])
                              for line in lines if line.startswith(_PROVENANCE)), {})
    return out


def write_record(path: Path, workload: str, table: dict, traced: dict,
                 spec: dict, settings: dict) -> None:
    """Merge one workload's pairs and traced runs into the JSON file ``path``.

    ``table`` maps each end-to-end metric to its ``summary``; ``traced``
    maps "base" and "change" to the parsed ``--trace 1`` run of that side.
    """
    record = (json.loads(path.read_text(encoding="utf-8")) if path.exists()
              else {"workloads": {}})
    for side, out in traced.items():
        prov = out["provenance"]
        record[side] = {"git_sha": prov.get("git_sha"),
                        "git_dirty": prov.get("git_dirty")}
    record["host"] = {key: value for key, value in traced["change"]["provenance"].items()
                      if key not in ("seed", "git_sha", "git_dirty")}
    record["workloads"][workload] = {
        **settings,
        "end_to_end": {name: {key: list(value) if isinstance(value, tuple) else value
                              for key, value in s.items()}
                       for name, s in table.items()},
        "per_layer": {
            "seed": settings["first_seed"],
            **{side: {m["name"]: out["metrics"][m["name"]]["value"]
                      for m in spec["per_layer"] if m["name"] in out["metrics"]}
               for side, out in traced.items()}},
    }
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    values = {side: {name: [] for name in better} for side in ("base", "change")}
    outs = {"base": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        runs = {side: run_once(getattr(args, side), args.workload, seed,
                               spec["run_seconds"]) for side in order}
        if None in runs.values():
            print(f"# pair {i + 1} seed {seed} left out", flush=True)
            continue
        for side, out in runs.items():
            outs[side].append(out)
            if not out["correct"] or out["failed"]:
                print(f"# {side} seed {seed}: correct {out['correct']}, "
                      f"failed {out['failed']} of {out['attempted']}")
            for name in better:
                values[side][name].append(out["metrics"][name]["value"])
        first = next(iter(better))
        print(f"# pair {i + 1}/{args.pairs} seed {seed}, {order[0]} first: "
              f"{first} {values['base'][first][-1]:.4g} -> "
              f"{values['change'][first][-1]:.4g}", flush=True)
    if not values["base"][next(iter(better))]:
        print("# no pair completed")
        return 1
    print(f"{'metric':12s} {'base q1 / median / q3':>30s} "
          f"{'change q1 / median / q3':>30s} {'wins':>7s} {'shift':>10s} "
          f"{'base IQR':>10s} {'gain':>5s}")
    runs_sound = sound(outs["base"], outs["change"])
    table = {}
    for name, direction in better.items():
        s = summary(values["base"][name], values["change"][name], direction)
        s["gain"] = s["gain"] and runs_sound
        table[name] = {"better": direction, **s}
        cells = ["{:.4g} / {:.4g} / {:.4g}".format(*s[side])
                 for side in ("base", "change")]
        print(f"{name:12s} {cells[0]:>30s} {cells[1]:>30s} "
              f"{s['wins']:>3d}/{s['pairs']:<3d} {s['shift']:>10.4g} "
              f"{s['base_iqr']:>10.4g} {'yes' if s['gain'] else 'no':>5s}")
    if not runs_sound:
        print("# no gain holds: a change run is not correct, or the change "
              "fails a larger share of its tasks than the base")
    if args.write is not None:
        traced = {side: run_once(getattr(args, side), args.workload,
                                 args.first_seed, spec["run_seconds"], trace=1)
                  for side in ("base", "change")}
        if None in traced.values():
            print(f"# a traced run failed; {args.write} is not written")
            return 1
        write_record(args.write, args.workload, table, traced, spec,
                     {"pairs_asked": args.pairs, "first_seed": args.first_seed,
                      "run_seconds": spec["run_seconds"], "sound": runs_sound})
        print(f"# wrote {args.workload} to {args.write}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
