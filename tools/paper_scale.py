"""Paper-scale runs of chargesim: a parent revision against the working tree.

The paper's question is asked of a national-scale fixture, which none of
the perfbench workloads reaches. This script builds that fixture with
`gen-fixtures --seed 1 --width-km 300 --height-km 250 --n-dc 72 --n-ac 636
--blobs 2 --population 2e5` (60,734 cells, 72 DC + 636 AC points) and runs,
on both sides, in three alternating pairs (PAIRS):

  probe                 simulate --n-ev 16758, aware, seed 0: the fleet
                        the capacity search below finds, one of its probes
  sim2000               simulate --n-ev 2000 --dump-routes --dump-ledger
  capacity-MODE-tN      capacity --n-ev 2000 --replicates 4
                        --target 1e-3 --threads N, for MODE aware and
                        blind and N 1 and 2
  faults-tN             faults --n-ev 2000 --replicates 4 --masks 100
                        --seed 0 --threads N, for N 1 and 2
  faults-probe          faults --n-ev 16758 --masks 1000 --seed 0
                        --threads 1, aware: the probe's fleet replayed
                        under 1,000 masks at each default p_f

With --full it also runs the capacity search itself once per side:
capacity --threshold 40 --target 1e-3 --n-ev 40000 --replicates 1 --seed 0
--threads 1, aware. That takes minutes, so it is not paired.

The parent is extracted from git with `git archive` into the work
directory, so the repository itself is left untouched. Each run's wall
time is measured around its process. The outputs of the two sides are
compared byte for byte, apart from manifest.json's wall_clock_s. One JSON
file is written.

    python tools/paper_scale.py --parent HEAD~1 --out paper_scale.json
    python tools/paper_scale.py --full --out paper_scale.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ["--seed", "1", "--width-km", "300", "--height-km", "250", "--n-dc", "72",
           "--n-ac", "636", "--blobs", "2", "--population", "2e5"]
SHORT_CAPACITY = ["capacity", "--n-ev", "2000", "--replicates", "4", "--target", "1e-3", "--seed", "0"]
RUNS = {
    "probe": ["simulate", "--n-ev", "16758", "--mode", "aware", "--seed", "0"],
    "sim2000": ["simulate", "--n-ev", "2000", "--mode", "aware", "--seed", "0",
                "--dump-routes", "--dump-ledger"],
    **{
        f"capacity-{mode}-t{threads}": [*SHORT_CAPACITY, "--mode", mode, "--threads", threads]
        for mode in ("aware", "blind") for threads in ("1", "2")
    },
    **{
        f"faults-t{threads}": ["faults", "--n-ev", "2000", "--replicates", "4", "--masks", "100",
                               "--seed", "0", "--threads", threads]
        for threads in ("1", "2")
    },
    "faults-probe": ["faults", "--n-ev", "16758", "--masks", "1000", "--seed", "0",
                     "--threads", "1", "--mode", "aware"],
}
FULL = ["capacity", "--threshold", "40", "--target", "1e-3", "--n-ev", "40000",
        "--replicates", "1", "--seed", "0", "--threads", "1", "--mode", "aware"]
SIDES = ("parent", "change")
PAIRS = 3


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """The src/ tree of rev, written under dest."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def chargesim(src: Path, argv: list[str], out: Path) -> float:
    """Run `python -m chargesim argv --out out` on the package in src;
    returns the wall time in seconds."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    t0 = time.perf_counter()
    p = subprocess.run([sys.executable, "-m", "chargesim", *argv, "--out", str(out)],
                       env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if p.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {p.returncode}:\n{p.stderr}")
    return wall


def outputs(d: Path) -> dict[str, bytes]:
    """Every file in d, with wall_clock_s dropped from manifest.json."""
    files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
    if "manifest.json" in files:
        manifest = json.loads(files["manifest.json"])
        manifest.pop("wall_clock_s", None)
        files["manifest.json"] = json.dumps(manifest, sort_keys=True).encode()
    return files


def differences(a: Path, b: Path) -> list[str]:
    fa, fb = outputs(a), outputs(b)
    return sorted(name for name in fa.keys() | fb.keys() if fa.get(name) != fb.get(name))


def summary(walls: list[float]) -> dict:
    out = {"runs": [round(w, 3) for w in walls], "median": round(statistics.median(walls), 3)}
    if len(walls) >= 2:
        q1, _, q3 = statistics.quantiles(walls, n=4)
        out.update(q1=round(q1, 3), q3=round(q3, 3))
    return out


def run_case(name: str, argv: list[str], srcs: dict[str, Path], cfg: Path, work: Path,
             pairs: int = PAIRS) -> dict:
    walls: dict[str, list[float]] = {side: [] for side in SIDES}
    diffs = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        dirs = {side: work / f"{name}-{i}-{side}" for side in SIDES}
        for side in order:
            walls[side].append(chargesim(srcs[side], [*argv, "-c", str(cfg)], dirs[side]))
        diffs.append(differences(dirs["parent"], dirs["change"]))
        for d in dirs.values():
            shutil.rmtree(d)
        print(f"{name} pair {i}: parent {walls['parent'][-1]:.2f} s, "
              f"change {walls['change'][-1]:.2f} s, differing files {diffs[-1]}", flush=True)
    return {
        "argv": ["chargesim", *argv],
        "first_side": [SIDES[0] if i % 2 == 0 else SIDES[1] for i in range(pairs)],
        "wall_s": {side: summary(walls[side]) for side in SIDES},
        "identical": not any(diffs),
        "differing_files": sorted({name for d in diffs for name in d}),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="revision to compare the working tree against")
    ap.add_argument("--full", action="store_true", help="also run the 40,000-ceiling capacity search")
    ap.add_argument("--out", default="paper_scale.json", help="JSON file to write")
    ap.add_argument("--work", help="work directory (default: a temporary one, removed at exit)")
    ns = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="paper-scale-") as tmp:
        work = Path(ns.work or tmp).resolve()
        work.mkdir(parents=True, exist_ok=True)
        srcs = {"parent": work / "parent" / "src", "change": ROOT / "src"}
        extract(ns.parent, work / "parent")
        fixtures = {}
        for side in SIDES:
            fixtures[side] = work / f"fixture-{side}"
            chargesim(srcs[side], ["gen-fixtures", *FIXTURE], fixtures[side])
        report = {
            "parent": git("rev-parse", ns.parent),
            "change": {"head": git("rev-parse", "HEAD"), "src_modified": bool(git("status", "--porcelain", "src"))},
            "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                     "load_average_at_start": os.getloadavg()},
            "fixture": {"argv": ["chargesim", "gen-fixtures", *FIXTURE],
                        "identical": all((fixtures["parent"] / f).read_bytes() == (fixtures["change"] / f).read_bytes()
                                         for f in ("population.csv", "network.csv"))},
            "pairs": PAIRS,
            "runs": {},
        }
        # both sides read the change's fixture, so only the code differs
        cfg = fixtures["change"] / "scenario.cfg"
        for name, argv in RUNS.items():
            report["runs"][name] = run_case(name, argv, srcs, cfg, work)
        if ns.full:
            report["full"] = run_case("full", FULL, srcs, cfg, work, 1)
        report["load_average_at_end"] = os.getloadavg()
    Path(ns.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {ns.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
