"""lexfuse benchmark: the nine-stage CLI chain timed end to end.

    python3 perfbench/run.py --workload case_defaults --seed 1 --seconds 30 --trace 0

Run from the root of a lexfuse source tree. The workload seed drives the
input generator (``lexfuse synth`` for the case workloads, ``statute.py``
for the statute workload); lexfuse receives only the generated inputs and
a config (workloads.json). Each stage ``ingest`` ... ``eval`` runs as its
own ``python -m lexfuse.cli`` child process, one at a time (a closed loop
with one client), and run.py times each child from outside: wall time
with ``perf_counter``, CPU time and peak RSS from ``os.wait4``. The chain
is repeated in a fresh work directory until another repetition would pass
``--seconds``, and medians over the repetitions are reported.

``pipeline_s`` is the sum of the nine stage wall times and ``setup_s``
the sum of ``ingest`` and ``index``.

Every repetition is checked: each stage exits 0, the expected artifacts
exist, the deterministic artifacts are byte-identical to the first
repetition's, the fused run beats BM25 top-k (see ``bm25_baseline``), and
the trained model keeps at least the workload's ``min_trees_kept`` trees.

``--trace 1`` adds one repetition in which every stage starts through
``launcher.py``, which records spans around each layer's functions, and
reports the per-layer metrics of ``layers.py`` instead of the end-to-end
ones. ``--workload all`` runs every workload in turn and prints one table.
``--smoke`` runs toy sizes, which ``test_smoke.py`` uses to check that
every metric named in BENCHMARK.json is emitted with its unit.
``--compare A B`` prints two result files side by side and refuses if
their input digests differ. Result files go to ``perfbench/out/results``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import statute

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

STAGES = ("ingest", "index", "score", "features", "train", "rerank", "tune",
          "postprocess", "eval")
EXPECTED = ("clean.jsonl", "index_plain.json", "index_ngram.json", "scores_bm25.tsv",
            "scores_qld.tsv", "scores_bm25_ngram.tsv", "features.tsv", "model.json",
            "run_raw.tsv", "tuning_report.tsv", "tuned_params.json", "run_final.tsv",
            "eval_report.json", "manifest.json")
DETERMINISTIC = ("model.json", "run_raw.tsv", "tuning_report.tsv", "tuned_params.json",
                 "run_final.tsv", "eval_report.json")
MIN_REPS = 2
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- child processes ------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv, log, deadline):
    """Run one process to completion; return (exit code, wall s, cpu s, peak RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                            env=child_env())
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def tree_digest(root):
    """sha256 over the relative path and bytes of every file under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        digest.update(sha256_file(path).encode("ascii"))
    return digest.hexdigest()


# -- inputs -----------------------------------------------------------------------

def load_workloads():
    return json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))


def make_inputs(spec, seed, run_dir, smoke, deadline):
    """Generate the workload's inputs from ``seed``; return (config, digest)."""
    inputs = run_dir / "inputs"
    size = spec["smoke_size"] if smoke else spec["size"]
    if spec["generator"] == "statute":
        config = statute.generate(inputs, seed, size["articles"], size["questions"])
    else:
        config = {
            "corpus_dir": str(inputs / "corpus"),
            "queries_file": str(inputs / "queries.json"),
            "qrels_file": str(inputs / "qrels.json"),
            "splits_file": str(inputs / "splits.json"),
            "external_scores": {name: str(inputs / f"external_{name}.tsv")
                                for name in ("SAILER", "DELTA")},
        }
        synth_config = run_dir / "synth.json"
        synth_config.write_text(json.dumps(dict(size, synth_dir=str(inputs), seed=seed)))
        with open(run_dir / "synth.log", "w") as log:
            code, *_ = run_child([sys.executable, "-m", "lexfuse.cli", "synth",
                                  "--config", str(synth_config)], log, deadline)
        if code != 0:
            log_tail = (run_dir / "synth.log").read_text()[-500:]
            raise BenchError(f"lexfuse synth exited {code}: {log_tail}")
    config.update(spec["overrides"])
    if smoke:
        config.update(spec.get("smoke_overrides", {}))
    config["seed"] = seed
    config["work_dir"] = str(run_dir / "work")
    return config, tree_digest(inputs)


# -- correctness checks -------------------------------------------------------------

def _read_ranked(path, columns):
    """{query: [doc, ...]} in file order from a TSV whose first columns are query, doc."""
    ranked = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if len(parts) == columns:
                ranked.setdefault(parts[0], []).append(parts[1])
    return ranked


def _f_measure(ranked, qrels, macro):
    """Micro F1, or macro F2 from averaged per-query precision and recall."""
    if macro:
        p = r = 0.0
        for qid, relevant in qrels.items():
            got = ranked.get(qid, [])
            hits = len(set(got) & relevant)
            p += hits / len(got) if got else 0.0
            r += hits / len(relevant) if relevant else 0.0
        p, r = p / len(qrels), r / len(qrels)
        return 5 * p * r / (4 * p + r) if 4 * p + r else 0.0
    tp = fp = fn = 0
    for qid in set(ranked) | set(qrels):
        got, relevant = set(ranked.get(qid, [])), qrels.get(qid, set())
        tp, fp, fn = tp + len(got & relevant), fp + len(got - relevant), fn + len(relevant - got)
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def bm25_baseline(config, work):
    """(fused F, BM25 top-k F) over all queries, computed from the artifacts.

    k is 5 with micro F1 for the case task and 1 with macro F2 for the
    statute task. All queries are used, not only the test split: at the
    benchmark's sizes the test split holds a handful of queries.
    """
    statute = config.get("task") == "statute"
    qrels = {q: set(d) for q, d in json.loads(Path(config["qrels_file"]).read_text()).items()}
    fused = _read_ranked(work / "run_final.tsv", 5)
    k = 1 if statute else 5
    bm25 = {}
    with open(work / "scores_bm25.tsv", encoding="utf-8") as fh:
        for line in fh:
            qid, doc, score = line.rstrip("\n").split("\t")
            bm25.setdefault(qid, []).append((-float(score), doc))
    baseline = {q: [doc for _, doc in sorted(pairs)[:k]] for q, pairs in bm25.items()}
    return _f_measure(fused, qrels, statute), _f_measure(baseline, qrels, statute)


# -- one repetition of the chain ------------------------------------------------------

def run_chain(config_path, work, log, deadline, spans_dir=None, run_id=None):
    """Run the nine stages in order, stopping at the first failure."""
    shutil.rmtree(work, ignore_errors=True)
    stages = {}
    for stage in STAGES:
        if spans_dir is None:
            argv = [sys.executable, "-m", "lexfuse.cli"]
        else:
            argv = [sys.executable, str(BENCH / "launcher.py"),
                    str(spans_dir / f"{stage}.json"), run_id]
        argv += [stage, "--config", str(config_path)]
        code, wall, cpu, rss = run_child(argv, log, deadline)
        stages[stage] = {"exit": code, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss}
        if code != 0:
            break
    return stages


class Run:
    """Repetitions of one workload's chain with their checks and samples."""

    def __init__(self, config, run_dir, deadline, min_trees_kept=0):
        self.config = config
        self.min_trees_kept = min_trees_kept
        self.run_dir = run_dir
        self.deadline = deadline
        self.config_path = run_dir / "config.json"
        self.config_path.write_text(json.dumps(config, sort_keys=True, indent=1))
        self.work = Path(config["work_dir"])
        self.log = open(run_dir / "stages.log", "w")
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.reference = None
        self.reps = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def repetition(self, spans_dir=None, run_id=None):
        load_start = os.getloadavg()[0]
        stages = run_chain(self.config_path, self.work, self.log, self.deadline,
                           spans_dir, run_id)
        for stage, result in stages.items():
            self.check(result["exit"] == 0, f"stage {stage} exited {result['exit']}")
        if len(stages) < len(STAGES) or any(r["exit"] for r in stages.values()):
            self.log.flush()
            self.failures.append((self.run_dir / "stages.log").read_text()[-500:])
            return None
        missing = [n for n in EXPECTED if not (self.work / n).is_file()]
        if not self.check(not missing, f"missing artifacts {missing}"):
            return None
        hashes = {name: sha256_file(self.work / name) for name in DETERMINISTIC}
        if self.reference is None:
            self.reference = hashes
        changed = sorted(n for n in DETERMINISTIC if hashes[n] != self.reference[n])
        self.check(not changed, f"artifacts differ from the first repetition: {changed}")
        fused_f, bm25_f = bm25_baseline(self.config, self.work)
        self.check(fused_f > bm25_f, f"fused F {fused_f:.4f} does not beat BM25 {bm25_f:.4f}")
        trees_kept = len(json.loads((self.work / "model.json").read_text())["trees"])
        self.check(trees_kept >= self.min_trees_kept,
                   f"model keeps {trees_kept} trees, fewer than {self.min_trees_kept}")
        report = json.loads((self.work / "eval_report.json").read_text())
        rep = {
            "stages": stages,
            "pipeline_s": sum(r["wall_s"] for r in stages.values()),
            "setup_s": stages["ingest"]["wall_s"] + stages["index"]["wall_s"],
            "cpu_s": sum(r["cpu_s"] for r in stages.values()),
            "peak_rss_mb": max(r["rss_mb"] for r in stages.values()),
            "artifact_mb": sum(p.stat().st_size for p in self.work.rglob("*")
                               if p.is_file()) / 2**20,
            "eval_f": report["f_measure"],
            "eval_map": report["map"],
            "bm25_f": bm25_f,
            "trees_kept": trees_kept,
            "load_1m": [load_start, os.getloadavg()[0]],
        }
        if spans_dir is None:
            self.reps.append(rep)
        return rep

    def repeat(self, seconds):
        """Repeat the chain until another repetition would pass ``seconds``."""
        started = time.monotonic()
        while True:
            rep = self.repetition()
            if rep is None:
                return
            elapsed = time.monotonic() - started
            typical = elapsed / len(self.reps)
            if len(self.reps) >= MIN_REPS and elapsed + typical > seconds:
                return

    def close(self):
        self.log.close()


# -- reporting -----------------------------------------------------------------------

def summarize(values):
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    pct = max(50, int(100 * (n - 10) / n)) if n else 50
    index = min(n - 1, max(0, -(-pct * n // 100) - 1))
    return {"n": n, "median": statistics.median(ordered), "pct": pct, "pct_value": ordered[index]}


def environment():
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or commit
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "commit": commit}


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


END_TO_END = ("pipeline_s", "setup_s", "peak_rss_mb", "artifact_mb", "eval_f", "eval_map")
EXTRA = ("cpu_s", "bm25_f", "trees_kept")


def run_workload(name, spec, seed, seconds, trace, smoke):
    """One benchmark run; returns the result record."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    run_dir = OUT / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = environment()
    try:
        config, digest = make_inputs(spec, seed, run_dir, smoke, deadline)
        run = Run(config, run_dir, deadline, 0 if smoke else spec.get("min_trees_kept", 0))
        try:
            run.repeat(seconds)
            traced = None
            if trace and run.reps and not run.failed:
                spans_dir = run_dir / "spans"
                spans_dir.mkdir()
                traced = run.repetition(spans_dir, f"{name}-seed{seed}-{os.getpid()}")
                if traced is not None:
                    traces = {s: json.loads((spans_dir / f"{s}.json").read_text())
                              for s in STAGES}
        finally:
            run.close()
        reps = run.reps
        samples = {m: [rep[m] for rep in reps] for m in END_TO_END + EXTRA}
        summary = {m: summarize(v) for m, v in samples.items() if v}
        metrics = {m: summary[m]["median"] for m in END_TO_END if m in summary}
        detail = {}
        if trace and traced is not None:
            stage_wall = {s: statistics.median(r["stages"][s]["wall_s"] for r in reps)
                          for s in STAGES}
            stage_rss = {s: statistics.median(r["stages"][s]["rss_mb"] for r in reps)
                         for s in STAGES}
            metrics, detail = layers.layer_metrics(
                traces, run.work, stage_wall, stage_rss, metrics["pipeline_s"],
                traced["pipeline_s"])
        loads = [rep["load_1m"] for rep in reps]
        return {
            "workload": name,
            "seed": seed,
            "trace": trace,
            "smoke": smoke,
            "environment": env,
            "load_1m": loads,
            "overloaded": any(start > env["nproc"] for start, _ in loads),
            "input_sha256": digest,
            "artifact_sha256": run.reference or {},
            "config": {k: v for k, v in config.items()
                       if not isinstance(v, str) or not v.startswith(str(run_dir))},
            "repetitions": len(reps),
            "samples": samples,
            "stages": {s: {k: [rep["stages"][s][k] for rep in reps]
                           for k in ("wall_s", "cpu_s", "rss_mb")} for s in STAGES},
            "summary": summary,
            "metrics": metrics,
            "detail": detail,
            "attempted": run.attempted,
            "failed": run.failed,
            "failures": run.failures,
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def print_result(result, units):
    print(f"== {result['workload']} seed {result['seed']}: {result['repetitions']} "
          f"repetitions, inputs sha256 {result['input_sha256'][:16]}")
    env = result["environment"]
    print(f"   nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"commit {env['commit'][:12]}, load {result['load_1m']}"
          + ("  ** load above nproc at a run start **" if result["overloaded"] else ""))
    for name, s in result["summary"].items():
        unit = units.get(name, "s" if name.endswith("_s") else "")
        print(f"   {name:<14} {s['median']:>12.4f} {unit:<6} median of n={s['n']}, "
              f"p{s['pct']} {s['pct_value']:.4f}")
    share = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"   {'failed_share':<14} {share:>12.4f} ratio  "
          f"({result['failed']} of {result['attempted']} stage runs and checks)")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")
    if result["trace"]:
        for name, value in {**result["metrics"], **result["detail"]}.items():
            print(f"   {name:<44} {value:.6g} {units.get(name, 's')}")
    for name, digest in result["artifact_sha256"].items():
        print(f"   sha256 {name:<18} {digest}")


def save_result(result):
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / (f"{result['workload']}-seed{result['seed']}-trace{result['trace']}-"
                      f"{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(result, sort_keys=True, indent=1))
    return path


def compare(path_a, path_b):
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if a["workload"] != b["workload"] or a["input_sha256"] != b["input_sha256"]:
        raise BenchError(
            f"refusing to compare: inputs differ ({a['workload']} {a['input_sha256'][:16]} "
            f"vs {b['workload']} {b['input_sha256'][:16]}); a changed generator or "
            "lexfuse synth must not pass as a speed-up")
    print(f"{'metric':<44} {'A':>12} {'B':>12} {'B/A':>8}")
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        va, vb = a["metrics"][name], b["metrics"][name]
        ratio = f"{vb / va:8.3f}" if va else "       -"
        print(f"{name:<44} {va:>12.4f} {vb:>12.4f} {ratio}")
    for name in sorted(set(a["artifact_sha256"]) | set(b["artifact_sha256"])):
        same = a["artifact_sha256"].get(name) == b["artifact_sha256"].get(name)
        print(f"artifact {name:<18} {'identical' if same else 'DIFFERS'}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="RESULT_JSON")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            compare(*args.compare)
            return 0
        if not (SRC / "lexfuse" / "cli.py").is_file():
            raise BenchError(f"no lexfuse sources under {SRC}; run from a lexfuse checkout")
        workloads = load_workloads()
        names = list(workloads) if args.workload == "all" else [args.workload]
        unknown = [n for n in names if n not in workloads]
        if unknown:
            raise BenchError(f"unknown workload {unknown[0]!r}; choose from {list(workloads)}")
        units = declared_metrics(args.trace)
        results = []
        for name in names:
            result = run_workload(name, workloads[name], args.seed, args.seconds,
                                  args.trace, args.smoke)
            print_result(result, units)
            print(f"   saved {save_result(result).relative_to(ROOT)}")
            results.append(result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    missing = [(r["workload"], m) for r in results if not r["failed"]
               for m in units if m not in r["metrics"]]
    if missing:
        print(f"perfbench: metrics not emitted: {missing}", file=sys.stderr)
        return 2
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{m}" if prefix else m): {"value": v, "unit": units.get(m, "")}
        for r in results for m, v in r["metrics"].items() if m in units
    }
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
