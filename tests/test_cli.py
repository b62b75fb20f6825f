import dataclasses
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lexfuse import cli, ltr, scorers, synth
from lexfuse.evaluation import load_qrels, micro_prf1, read_run_file
from lexfuse.indexing import InvertedIndex

ROOT = Path(__file__).resolve().parent.parent


def write_config(path, **overrides):
    path.write_text(json.dumps(overrides))
    return str(path)


def run(command, config_path):
    return cli.main([command, "--config", config_path])


def forget(work, name):
    """Drop ``name``'s manifest entry, so a stage reads a hand-edited ``name`` as it is."""
    path = work / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["artifacts"][name]
    path.write_text(json.dumps(manifest))


def term_strings(postings):
    """Each term of ``postings`` as its "_"-joined words, in row order."""
    words = ["", *postings.words]
    return ["_".join(words[i] for i in row if i) for row in postings.terms.tolist()]


def assert_pinned(work, pinned):
    """Compare the sha256 of every ``work`` file but ``manifest.json`` (absolute paths)
    with ``pinned``, naming every file that moved with both digests."""
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in work.iterdir()
           if p.is_file() and p.name != "manifest.json"}
    moved = [f"{name}: pinned {pinned.get(name)}, got {got.get(name)}"
             for name in sorted(set(got) | set(pinned)) if got.get(name) != pinned.get(name)]
    assert not moved, "artifact bytes moved:\n" + "\n".join(moved)


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    """One small case-retrieval chain, shared across tests."""
    root = tmp_path_factory.mktemp("pipeline")
    synth_dir = root / "synth"
    work = root / "work"
    cfg = write_config(
        root / "config.json",
        synth_dir=str(synth_dir),
        synth_num_queries=12,
        synth_num_candidates=110,
        corpus_dir=str(synth_dir / "corpus"),
        queries_file=str(synth_dir / "queries.json"),
        qrels_file=str(synth_dir / "qrels.json"),
        splits_file=str(synth_dir / "splits.json"),
        work_dir=str(work),
        seed=11,
        rerank_depth=30,
        ltr_num_trees=40,
        ltr_max_leaves=5,
        ltr_learning_rate=0.1,
        ltr_min_samples_leaf=5,
        ltr_ndcg_truncation=5,
        ltr_validation_fraction=0.34,
        filter_order="date,query,cutoff,duplicate",
        external_scores={
            "SAILER": str(synth_dir / "external_SAILER.tsv"),
            "DELTA": str(synth_dir / "external_DELTA.tsv"),
        },
        grid_p=[0.0, 0.3, 0.6],
        grid_h=[4, 6],
        grid_l=[0, 1],
        grid_t=[1, 2],
        grid_s=[0, 1],
        eval_split="test",
    )
    for command in ("synth", "ingest", "index", "score", "features", "train",
                    "rerank", "tune", "postprocess", "eval"):
        assert run(command, cfg) == 0, command
    return root, synth_dir, work, cfg


def tiny_chain_config(root, **overrides):
    synth_dir = root / "synth"
    return write_config(
        root / "cfg.json",
        synth_dir=str(synth_dir), synth_num_queries=4, synth_num_candidates=40,
        corpus_dir=str(synth_dir / "corpus"),
        queries_file=str(synth_dir / "queries.json"),
        qrels_file=str(synth_dir / "qrels.json"),
        external_scores={name: str(synth_dir / f"external_{name}.tsv")
                         for name in ("SAILER", "DELTA")},
        work_dir=str(root / "work"), rerank_depth=10,
        ltr_num_trees=3, ltr_max_leaves=2, ltr_min_samples_leaf=1, **overrides,
    )


class TestPipelineArtifacts:
    def test_all_artifacts_exist(self, small_pipeline):
        _, synth_dir, work, _ = small_pipeline
        for name in ("clean.jsonl", "ingest_stats.json", "index_plain.json",
                     "index_ngram.json", "scores_bm25.tsv", "scores_qld.tsv",
                     "scores_bm25_ngram.tsv", "features.tsv", "model.json",
                     "train_log.tsv", "run_raw.tsv", "tuning_report.tsv",
                     "tuned_params.json", "run_final.tsv", "eval_report.json",
                     "manifest.json"):
            assert (work / name).is_file(), name

    def test_manifest_records_hashes(self, small_pipeline):
        _, _, work, _ = small_pipeline
        manifest = json.loads((work / "manifest.json").read_text())
        entry = manifest["artifacts"]["run_final.tsv"]
        assert entry["command"] == "postprocess"
        assert len(entry["sha256"]) == 64
        assert entry["inputs"]

    def test_manifest_records_every_input_read(self, small_pipeline):
        _, synth_dir, work, _ = small_pipeline
        artifacts = json.loads((work / "manifest.json").read_text())["artifacts"]

        def inputs(name):
            return set(artifacts[name]["inputs"])

        assert str(synth_dir / "corpus") in inputs("clean.jsonl")
        assert {str(work / "clean.jsonl"), str(synth_dir / "queries.json"),
                str(synth_dir / "qrels.json"), str(synth_dir / "external_SAILER.tsv"),
                str(synth_dir / "external_DELTA.tsv")} <= inputs("features.tsv")
        assert {str(synth_dir / "qrels.json"),
                str(synth_dir / "splits.json")} <= inputs("tuning_report.tsv")
        assert str(work / "tuned_params.json") in inputs("run_final.tsv")

    def test_final_run_parses_and_scores(self, small_pipeline):
        _, synth_dir, work, _ = small_pipeline
        runs = read_run_file(work / "run_final.tsv")
        qrels = load_qrels(synth_dir / "qrels.json")
        report = micro_prf1(
            {q: s for q, s in runs.items()},
            {q: d for q, d in qrels.items() if q in runs},
        )
        assert report.f_measure > 0.5

    def test_no_leftover_temp_files(self, small_pipeline):
        _, _, work, _ = small_pipeline
        assert not list(work.glob("*.tmp"))

    def test_reruns_are_byte_identical(self, small_pipeline):
        _, _, work, cfg = small_pipeline
        before = {p.name: p.read_bytes() for p in work.iterdir() if p.is_file()}
        for command in ("score", "features", "train", "rerank", "tune", "postprocess"):
            assert run(command, cfg) == 0
        for name in ("scores_bm25.tsv", "features.tsv", "model.json",
                     "run_raw.tsv", "run_final.tsv"):
            assert (work / name).read_bytes() == before[name], name

    # sha256 of every work_dir file of ``small_pipeline`` but ``manifest.json``.
    PINNED = {
        "clean.jsonl": "b409adc0f0309b67e4f2498fe78fba0a1350f6e9260aacbe97cce6569fa9ea9a",
        "eval_report.json": "443ce81342a6aff88fce4678424337481987ba69b98b6b55ac9de27324eb3ddd",
        "features.tsv": "d3de91b3a558c0b9707290e76ec6d5fe16130fe121f2a68805466fb426e97799",
        "index_ngram.json": "2f097be2a6f55c5e31141332ad4f113644f3c1e2e2fff46ae177eedcc11a33af",
        "index_plain.json": "319eab8cf99c769af10b6acb2c4701ad6454d63fb08ac500d4e53439f27a2cea",
        "ingest_stats.json": "748ca854009fdf3f89ff4edcec1c3b9bf7d8af196c86b568f9016650d0878d95",
        "model.json": "bba4baa54919ea75494f4d483172ffa282b5f20f2c0c66f909873adec9bd9bfb",
        "run_final.tsv": "1481728576be3eea6dc79bf3b2b40615399b11bb5e3e54b34658c08892dd2296",
        "run_raw.tsv": "c6c02293dabdc8da0417170e4045d15263fa821e043d1be4c80825f9daccba2f",
        "scores_bm25.tsv": "c00244fa1e55dc4ddbccc6b957f208c8965afbe16ea21732a20e4f75d20d96e0",
        "scores_bm25_ngram.tsv": "832cf616e9bc0d77de12300da6efbaec5f683322fdc67071ea7bb50cffe79779",
        "scores_qld.tsv": "3a062b3a4966c9d02fa6325f289f3dd0d25a37ffa4c692bb0399fb19d11ca5ae",
        "train_log.tsv": "16321affba850acef6fcb7387290dc49fbd195286cc8a00946e91902ba2ac5dd",
        "tuned_params.json": "20b383716dc2b2972bcb9272feec9cb9fb629bc3674e7b4b9167d021d443bce6",
        "tuning_report.tsv": "c966779c7d8af2879f474801ffd7783c01f25e448a5ea67c622d12eaa93bf7f1",
    }

    def test_artifact_bytes_are_pinned(self, small_pipeline):
        _, _, work, _ = small_pipeline
        assert_pinned(work, self.PINNED)


class TestCrossProcessDeterminism:
    def test_artifacts_identical_under_different_hash_seeds(self, tmp_path):
        # String-hash randomization changes set iteration order between
        # processes; no artifact may depend on it.
        outputs = {}
        for tag, hash_seed in (("a", "1"), ("b", "4242")):
            synth_dir = tmp_path / f"synth_{tag}"
            work = tmp_path / f"work_{tag}"
            cfg = write_config(
                tmp_path / f"cfg_{tag}.json",
                synth_dir=str(synth_dir),
                synth_num_queries=8,
                synth_num_candidates=80,
                corpus_dir=str(synth_dir / "corpus"),
                queries_file=str(synth_dir / "queries.json"),
                qrels_file=str(synth_dir / "qrels.json"),
                splits_file=str(synth_dir / "splits.json"),
                work_dir=str(work),
                seed=5,
                rerank_depth=20,
                ltr_num_trees=10,
                ltr_max_leaves=4,
                ltr_min_samples_leaf=2,
                ltr_validation_fraction=0.34,
                external_scores={
                    "SAILER": str(synth_dir / "external_SAILER.tsv"),
                    "DELTA": str(synth_dir / "external_DELTA.tsv"),
                },
                grid_p=[0.0, 0.5], grid_h=[4], grid_l=[0], grid_t=[1], grid_s=[0],
            )
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
                p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
            for command in ("synth", "ingest", "index", "score", "features",
                            "train", "rerank", "tune", "postprocess"):
                proc = subprocess.run(
                    [sys.executable, "-m", "lexfuse.cli", command, "--config", cfg],
                    env=env, capture_output=True, text=True,
                )
                assert proc.returncode == 0, (command, proc.stderr)
            outputs[tag] = work
        for name in ("clean.jsonl", "index_ngram.json", "features.tsv",
                     "model.json", "run_raw.tsv", "tuned_params.json",
                     "run_final.tsv"):
            assert (outputs["a"] / name).read_bytes() == \
                   (outputs["b"] / name).read_bytes(), name


def simd_levels():
    """The ``NPY_DISABLE_CPU_FEATURES`` value of each numpy SIMD level this machine
    has, from numpy's baseline up: each turns off the dispatch targets above it."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    found = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return [" ".join(found[i:]) for i in range(len(found) + 1)]


class TestSimdLevels:
    def test_tiny_chains_write_the_same_bytes_at_every_level(self, tmp_path):
        # One child process per level runs the tiny case chain and the statute chain;
        # only the child's environment names the numpy targets it turns off.
        (tmp_path / "case").mkdir()
        (tmp_path / "statute").mkdir()
        case = tiny_chain_config(tmp_path / "case", grid_p=[0.0, 0.5], grid_h=[4], grid_l=[0],
                                 grid_t=[1], grid_s=[0])
        assert run("synth", case) == 0
        chains = {"case": json.loads(Path(case).read_text()),
                  "statute": json.loads(Path(statute_chain_config(tmp_path / "statute")[0])
                                        .read_text())}
        # Long enough training that np.exp in place of ltr's math.exp moves model.json
        # and the run files between the baseline and the AVX512 levels.
        chains["case"].update(rerank_depth=30, ltr_num_trees=40, ltr_patience=40,
                              ltr_max_leaves=5, ltr_min_samples_leaf=5)
        commands = ["ingest", "index", "score", "features", "train", "rerank", "tune",
                    "postprocess", "eval"]
        script = ("import sys; from lexfuse import cli; sys.exit(any(cli.main([c, '--config', "
                  f"f]) for f in sys.argv[1:] for c in {commands!r}))")
        written = {}
        for level in simd_levels():
            configs = []
            for chain, config in chains.items():
                config = dict(config, work_dir=str(tmp_path / f"work{len(written)}" / chain))
                configs.append(write_config(tmp_path / f"{chain}{len(written)}.json", **config))
            env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=level, PYTHONPATH=os.pathsep.join(
                p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
            proc = subprocess.run([sys.executable, "-c", script, *configs], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, (level, proc.stderr)
            written[level] = {(chain, p.name): p.read_bytes()
                              for chain in chains for p in (tmp_path / f"work{len(written)}" /
                                                            chain).iterdir()
                              if p.name != "manifest.json"}
        default = written.pop("")
        assert len(default) == 31
        for level, files in written.items():
            moved = sorted(name for name in default.keys() | files.keys()
                           if default.get(name) != files.get(name))
            assert not moved, f"with {level} turned off: {moved}"


class TestSynthCommand:
    def test_synth_outputs_deterministic(self, tmp_path):
        out = {}
        for tag in ("a", "b"):
            synth_dir = tmp_path / f"synth_{tag}"
            cfg = write_config(
                tmp_path / f"cfg_{tag}.json",
                synth_dir=str(synth_dir),
                synth_num_queries=6,
                synth_num_candidates=60,
                seed=3,
            )
            assert run("synth", cfg) == 0
            out[tag] = synth_dir
        a, b = out["a"], out["b"]
        assert (a / "qrels.json").read_bytes() == (b / "qrels.json").read_bytes()
        assert (a / "splits.json").read_bytes() == (b / "splits.json").read_bytes()
        files_a = sorted(p.name for p in (a / "corpus").iterdir())
        assert files_a == sorted(p.name for p in (b / "corpus").iterdir())
        for name in files_a[:10]:
            assert (a / "corpus" / name).read_bytes() == (b / "corpus" / name).read_bytes()

    def test_shipped_defaults_generate(self, tmp_path):
        synth_dir = tmp_path / "synth"
        cfg = write_config(tmp_path / "cfg.json", synth_dir=str(synth_dir))
        assert run("synth", cfg) == 0
        assert len(json.loads((synth_dir / "queries.json").read_text())) == \
            cli.DEFAULTS["synth_num_queries"]

    def test_planted_relevance_is_lexically_visible(self, tmp_path):
        synth_dir = tmp_path / "synth"
        cfg = write_config(
            tmp_path / "cfg.json",
            synth_dir=str(synth_dir), synth_num_queries=4,
            synth_num_candidates=40, seed=1,
        )
        assert run("synth", cfg) == 0
        qrels = json.loads((synth_dir / "qrels.json").read_text())
        for qid, relevant in qrels.items():
            q_text = (synth_dir / "corpus" / f"{qid}.txt").read_text()
            marks = {w for w in q_text.split() if w.startswith("casemark")}
            assert marks
            for cid in relevant:
                c_text = (synth_dir / "corpus" / f"{cid}.txt").read_text()
                assert marks & set(c_text.split())

    def test_vocab_size_beyond_the_syllable_table_exits_1_before_drawing(
            self, tmp_path, capsys, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a word was drawn before the vocabulary size was checked")

        monkeypatch.setattr(synth, "_make_vocab", no_draws)
        cfg = write_config(tmp_path / "cfg.json", synth_dir=str(tmp_path / "s"),
                           synth_vocab_size=65**2 + 65**3 + 1)  # 65 syllables
        assert run("synth", cfg) == 1
        assert ("usage error: config key 'synth_vocab_size': 278851 is too large; the syllable "
                "table makes at most 278850 distinct words" in capsys.readouterr().err)
        assert not (tmp_path / "s").exists()

    def test_case_workload_inputs_are_pinned(self, tmp_path):
        """The case benchmark inputs (30 queries, 800 candidates, seed 1) keep their bytes:
        sha256 over each file's relative path, a NUL and the file's sha256."""
        synth.generate(synth.SyntheticSpec(num_queries=30, num_candidates=800, seed=1), tmp_path)
        digest = hashlib.sha256()
        for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(tmp_path)).encode("utf-8") + b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).hexdigest().encode("ascii"))
        assert digest.hexdigest() == \
            "d6b7e5e47bab4414db188f84fd3f5a8fd5de96fa8b56251692c4b87dbd008c07"


class TestIngestCommand:
    def test_month_spelled_with_a_folding_letter_is_no_date(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "c1.txt").write_text("Heard APR\u0130L 5, 2020. [1] The claim.",
                                       encoding="utf-8")
        (corpus / "c2.txt").write_text("Heard April 5, 2020. [1] The claim.", encoding="utf-8")
        cfg = write_config(tmp_path / "cfg.json", corpus_dir=str(corpus),
                           work_dir=str(tmp_path / "w"))
        assert run("ingest", cfg) == 0
        lines = (tmp_path / "w" / "clean.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["trial_date"] for line in lines] == [None, "2020-04-05"]


class TestEvalCommand:
    def test_reproduces_worked_micro_example(self, tmp_path):
        # q1 retrieved {A,B} vs relevant {A,C}; q2 retrieved {D} vs {D}:
        # pooled TP=2, FP=1, FN=1 -> P=R=F1=2/3.
        run_path = tmp_path / "run.tsv"
        run_path.write_text(
            "q1\tA\t1\t2.000000\tx\n"
            "q1\tB\t2\t1.000000\tx\n"
            "q2\tD\t1\t1.000000\tx\n"
        )
        qrels_path = tmp_path / "qrels.json"
        qrels_path.write_text(json.dumps({"q1": ["A", "C"], "q2": ["D"]}))
        work = tmp_path / "work"
        cfg = write_config(
            tmp_path / "cfg.json",
            work_dir=str(work), qrels_file=str(qrels_path), eval_run=str(run_path),
        )
        assert run("eval", cfg) == 0
        report = json.loads((work / "eval_report.json").read_text())
        assert report["counts"] == {"tp": 2, "fp": 1, "fn": 1}
        assert round(report["f_measure"], 4) == 0.6667


STATUTE_TOPICS = [
    "contract formation offer acceptance", "tort negligence damages",
    "property transfer registration", "guardianship minors consent",
    "mortgage security claims", "lease termination renewal",
]


def build_statute_fixture(tmp_path, topics=STATUTE_TOPICS):
    articles = tmp_path / "articles"
    questions = tmp_path / "questions"
    articles.mkdir()
    questions.mkdir()
    for i, topic in enumerate(topics):
        (articles / f"a{i}.txt").write_text(
            f"Part I General Provisions\n(Heading {i})\n"
            f"Article {i} concerns {topic} and related duties.\n"
        )
    qrels = {}
    for i, topic in enumerate(topics):
        (questions / f"r{i:02d}.txt").write_text(
            f"May a person rely on {topic} in this situation?"
        )
        qrels[f"r{i:02d}"] = [f"a{i}"]
    return articles, questions, qrels


def statute_chain_config(tmp_path):
    """The config of a small statute chain over ``build_statute_fixture`` in
    ``tmp_path``, and its questions directory."""
    articles, questions, qrels = build_statute_fixture(tmp_path)
    topics = STATUTE_TOPICS
    (tmp_path / "qrels.json").write_text(json.dumps(qrels))
    (tmp_path / "queries.json").write_text(
        json.dumps(sorted(qrels)))
    # Reranker scores arrive as external dumps: strong on the relevant
    # article, weak on one neighbour.
    externals = {}
    for name in ("BERT", "RoBERTa", "LEGALBERT", "monoT5_large", "monoT5_3B"):
        path = tmp_path / f"{name}.tsv"
        lines = []
        for i in range(len(topics)):
            lines.append(f"r{i:02d}\ta{i}\t0.900000")
            lines.append(f"r{i:02d}\ta{(i + 1) % len(topics)}\t0.200000")
        path.write_text("\n".join(lines) + "\n")
        externals[name] = str(path)
    cfg = write_config(
        tmp_path / "cfg.json",
        task="statute",
        corpus_dir=str(articles),
        queries_dir=str(questions),
        queries_file=str(tmp_path / "queries.json"),
        qrels_file=str(tmp_path / "qrels.json"),
        work_dir=str(tmp_path / "work"),
        seed=2,
        bm25_k1=0.99,
        bm25_b=0.75,
        rerank_depth=200,
        schema="task3_v1",
        external_scores=externals,
        ltr_num_trees=20,
        ltr_max_leaves=3,
        ltr_min_samples_leaf=1,
        ltr_ndcg_truncation=1,
        ltr_validation_fraction=0.34,
        filter_order="threshold",
        grid_p=[0.0, 0.2, 0.4, 0.6, 0.8],
        metric="macro_f2",
    )
    return cfg, questions


class TestStatuteTask:
    # sha256 of every work_dir file of ``test_full_statute_chain`` but ``manifest.json``.
    PINNED = {
        "clean.jsonl": "5feeea0fc0976037bc8c45dbc46f5aa56a137c48f896fa9a72de780d89173eea",
        "eval_report.json": "f356e815ec8b0a587175b4825ee685ae8c3be17a5cfec92dd6f9f15445e6c95e",
        "features.tsv": "1c230e8c4afa1681a5bfdf2f3a3cc8d628eba6eb303a8b85c7cad50c1d22df5d",
        "index_ngram.json": "bc6f681e3148ada50dcedb9c75e20a50af87cc9c51cccb11a3bfcc161e8efce6",
        "index_plain.json": "ee86a12dde263a28298d8672fa0ad2e69cbe1c3b79a4681371b037978d6e66f9",
        "ingest_stats.json": "8e6ea5e6984f3fb607166a28a24df31babc9ccfbf37e261f2628e73dc0a4ce6d",
        "model.json": "627d36f21b1b86c11d7457ab4b708eb967dec472e0a018aa890599e5a23f0bf3",
        "queries.jsonl": "062ac32263bbedcdc8bf5c913167f3c9fd9dc9707f43a81982835af254cae3c6",
        "run_final.tsv": "6ce0284630a863376959dc756a7836ac91f37d7407b900e08901bf23e651274e",
        "run_raw.tsv": "cbb1d6c255dcf6d3e6e542df6bb86c4215e1232426ad01ddef5fca48be04bf38",
        "scores_bm25.tsv": "e43f08ffbbc33e1f46fa2268af39224a01ac76336fd1564250e206b66a35332b",
        "scores_bm25_ngram.tsv": "b584a6fd39d84d6e5d4b31989d30faa9be045064e9f8cfd3d6aa663012bea8b8",
        "scores_qld.tsv": "f9b57e69e125cf10eaec79b6b1c0bd498dda4d57eb11982ad439defa5104781f",
        "train_log.tsv": "912346d9c2b18dd4e2bfa7d7ec7831a54307d54de3415402550740aff4238931",
        "tuned_params.json": "df7c42c3ab5492f7b3ea2fe0e3b7d72137e771e62cc669577d43061bb60e65d3",
        "tuning_report.tsv": "24b62f03477937d32c2fdcb6f809945eeef5edfb1eda47569fb94ce8ae0f1973",
    }

    def test_full_statute_chain(self, tmp_path):
        cfg, questions = statute_chain_config(tmp_path)
        work = tmp_path / "work"
        for command in ("ingest", "index", "score", "features", "train",
                        "rerank", "tune", "postprocess", "eval"):
            assert run(command, cfg) == 0, command
        cleaned = (work / "clean.jsonl").read_text()
        assert "Part I" not in cleaned
        assert "(Heading" not in cleaned
        report = json.loads((work / "eval_report.json").read_text())
        assert report["metric"] == "macro_f2"
        assert report["f_measure"] > 0.5
        manifest = json.loads((work / "manifest.json").read_text())
        assert str(questions) in manifest["artifacts"]["queries.jsonl"]["inputs"]
        assert_pinned(work, self.PINNED)

    def test_top200_is_the_default_rerank_depth(self):
        assert cli.DEFAULTS["rerank_depth"] == 200

    @staticmethod
    def proportion_chain(tmp_path, **overrides):
        """Work dir of a statute chain, run up to postprocess, whose splits make the
        training share of 2+-article answers 0.5."""
        topics = ["alpha rights duties obligations", "beta liens securities pledge",
                  "gamma estates succession wills", "delta adoption custody family",
                  "epsilon easements boundaries land", "zeta agency mandate powers",
                  "eta insurance premiums coverage", "theta partnership dissolution"]
        articles, questions, qrels = build_statute_fixture(tmp_path, topics)
        # Rewrite three questions to span two topics each.
        for qid, (a, b) in (("r01", (1, 2)), ("r03", (3, 4)), ("r05", (5, 6))):
            (questions / f"{qid}.txt").write_text(
                f"Does {topics[a]} interact with {topics[b]} here?")
            qrels[qid] = [f"a{a}", f"a{b}"]
        (tmp_path / "qrels.json").write_text(json.dumps(qrels))
        (tmp_path / "queries.json").write_text(json.dumps(sorted(qrels)))
        # Train: r00..r03 (two of four have 2 answers -> target 0.5);
        # tune: r04, r05; test: r06, r07.
        (tmp_path / "splits.json").write_text(json.dumps({
            "train": ["r00", "r01", "r02", "r03"],
            "tune": ["r04", "r05"],
            "test": ["r06", "r07"],
        }))
        work = tmp_path / "work"
        externals = {}
        for name in ("BERT", "RoBERTa", "LEGALBERT", "monoT5_large", "monoT5_3B"):
            path = tmp_path / f"{name}.tsv"
            lines = []
            for qid, docs in sorted(qrels.items()):
                for rank, doc in enumerate(sorted(docs)):
                    lines.append(f"{qid}\t{doc}\t{0.9 - 0.05 * rank:.6f}")
            path.write_text("\n".join(lines) + "\n")
            externals[name] = str(path)
        cfg = write_config(
            tmp_path / "cfg.json",
            task="statute",
            corpus_dir=str(articles),
            queries_dir=str(questions),
            queries_file=str(tmp_path / "queries.json"),
            qrels_file=str(tmp_path / "qrels.json"),
            splits_file=str(tmp_path / "splits.json"),
            work_dir=str(work),
            seed=3,
            bm25_k1=0.99,
            bm25_b=0.75,
            schema="task3_v1",
            external_scores=externals,
            ltr_num_trees=15,
            ltr_max_leaves=3,
            ltr_min_samples_leaf=1,
            ltr_ndcg_truncation=1,
            ltr_validation_fraction=0.5,
            grid_p=[0.0, 0.2, 0.4, 0.6, 0.8, 0.95],
            metric="macro_f2",
            **overrides,
        )
        for command in ("ingest", "index", "score", "features", "train",
                        "rerank", "tune", "postprocess"):
            assert run(command, cfg) == 0, command
        return work

    def test_threshold_tuned_by_multi_answer_proportion(self, tmp_path):
        # Questions spanning two topics have two relevant articles; with a
        # splits file, statute tuning matches the tune split's share of
        # 2+-article answers to the training share instead of the metric.
        work = self.proportion_chain(tmp_path, filter_order="threshold")
        tuned = json.loads((work / "tuned_params.json").read_text())
        assert set(tuned) == {"p"}
        assert tuned["p"] in (0.0, 0.2, 0.4, 0.6, 0.8, 0.95)
        # The chosen p reproduces a tune-split multi-answer share as close
        # to the training share (0.5) as the grid allows.
        from lexfuse.postprocess import threshold_cutoff
        runs = read_run_file(work / "run_raw.tsv")
        tune_runs = {q: runs[q] for q in ("r04", "r05")}
        achieved = {}
        for p in (0.0, 0.2, 0.4, 0.6, 0.8, 0.95):
            cut = threshold_cutoff(tune_runs, p=p)
            achieved[p] = sum(1 for s in cut.values() if len(s) >= 2) / len(cut)
        best_gap = min(abs(f - 0.5) for f in achieved.values())
        assert abs(achieved[tuned["p"]] - 0.5) == best_gap

    def test_proportion_rule_overrides_only_p(self, tmp_path):
        # The proportion rule picks p; the cutoff keeps its tuned h and l,
        # and postprocess applies both filters.
        work = self.proportion_chain(tmp_path, filter_order="threshold,cutoff",
                                     grid_h=[1, 2], grid_l=[0, 1])
        tuned = json.loads((work / "tuned_params.json").read_text())
        assert set(tuned) == {"h", "l", "p"}
        final = read_run_file(work / "run_final.tsv")
        assert final and max(len(slist) for slist in final.values()) <= tuned["h"]


def postprocess_inputs(tmp_path, **overrides):
    """Config over a hand-written work dir that ``tune`` and ``postprocess`` can read."""
    work = tmp_path / "w"
    work.mkdir()
    (work / "run_raw.tsv").write_text("q1\tA\t1\t1.000000\tx\nq1\tB\t2\t0.500000\tx\n")
    (work / "clean.jsonl").write_text("")
    (tmp_path / "queries.json").write_text('["q1"]')
    (tmp_path / "qrels.json").write_text('{"q1": ["A"]}')
    return write_config(tmp_path / "cfg.json", work_dir=str(work),
                        queries_file=str(tmp_path / "queries.json"),
                        qrels_file=str(tmp_path / "qrels.json"), **overrides)


class TestErrors:
    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", no_such_key=1)
        assert run("ingest", cfg) == 1

    def test_missing_corpus_is_data_error(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            corpus_dir=str(tmp_path / "nowhere"), work_dir=str(tmp_path / "w"),
        )
        assert run("ingest", cfg) == 2

    def test_missing_config_file_is_data_error(self, tmp_path):
        assert run("ingest", str(tmp_path / "absent.json")) == 2

    # json.loads raises a plain ValueError, not a JSONDecodeError, past 4,300 digits.
    @pytest.mark.parametrize("text", ["{not json", '{"seed": ' + "9" * 5000 + "}"],
                             ids=["not-json", "integer-too-long"])
    def test_bad_json_config_is_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        capsys.readouterr()
        assert run("ingest", str(path)) == 1
        assert f"usage error: {path}: not valid JSON: " in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self):
        assert cli.main(["frobnicate", "--config", "x.json"]) == 1

    @pytest.mark.parametrize("task", ["case", "statute"])
    @pytest.mark.parametrize("name", [b"c\tx.txt", b"c\nx.txt", b"c\rx.txt", b"c\xff2.txt"])
    def test_id_that_breaks_a_tsv_field_is_a_data_error_naming_the_file(
            self, tmp_path, capsys, task, name):
        articles, questions, _ = build_statute_fixture(tmp_path)
        bad = (articles if task == "case" else questions) / os.fsdecode(name)
        bad.write_text("May a person rely on contract formation here?")
        cfg = write_config(tmp_path / "cfg.json", task=task, corpus_dir=str(articles),
                           queries_dir=str(questions), work_dir=str(tmp_path / "w"))
        assert run("ingest", cfg) == 2
        shown = os.fsencode(bad).decode("utf-8", "backslashreplace")
        assert (f"data error: {shown}: an id must be UTF-8 and hold no tab, newline or "
                f"carriage return" in capsys.readouterr().err)
        assert not (tmp_path / "w" / "clean.jsonl").exists()

    def test_stage_out_of_order_is_data_error(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", work_dir=str(tmp_path / "w"))
        assert run("index", cfg) == 2

    def test_threads_flag_and_key_are_usage_errors(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", work_dir=str(tmp_path / "w"))
        assert cli.main(["index", "--config", cfg, "--threads", "2"]) == 1
        cfg = write_config(tmp_path / "cfg2.json", work_dir=str(tmp_path / "w"), threads=1)
        assert run("index", cfg) == 1

    def test_stale_upstream_artifact_is_data_error(self, tmp_path, capsys):
        cfg = tiny_chain_config(tmp_path)
        synth_dir = tmp_path / "synth"
        for command in ("synth", "ingest", "index"):
            assert run(command, cfg) == 0, command
        changed = sorted((synth_dir / "corpus").glob("*.txt"))[-1]
        changed.write_text(changed.read_text() + "\nA further paragraph.\n")
        assert run("ingest", cfg) == 0
        capsys.readouterr()
        assert run("score", cfg) == 2
        err = capsys.readouterr().err
        assert "index_plain.json" in err and "clean.jsonl" in err
        assert run("index", cfg) == 0
        assert run("score", cfg) == 0

    def test_json_index_versions_1_and_2_are_data_errors(self, tmp_path, capsys):
        cfg = tiny_chain_config(tmp_path)
        for command in ("synth", "ingest", "index"):
            assert run(command, cfg) == 0, command
        path = tmp_path / "work" / "index_plain.json"
        index = InvertedIndex.load(path)
        common = {"format": "lexfuse-index", "config": dataclasses.asdict(index.config),
                  "doc_ids": list(index.doc_ids), "doc_len": index.doc_len.tolist()}
        terms = term_strings(index.postings)
        layouts = {
            # The version-1 layout: a {term: [[ordinal, tf], ...]} dict.
            1: {"postings": {term: rows.tolist()
                             for term, rows in zip(terms, index.postings.values())}},
            # The version-2 layout: flat JSON lists.
            2: {"terms": terms,
                "doc_freq": [len(rows) for rows in index.postings.values()],
                "postings": index.postings.rows.ravel().tolist()},
        }
        forget(tmp_path / "work", "index_plain.json")
        for version, layout in layouts.items():
            path.write_text(json.dumps({**common, **layout, "version": version}))
            capsys.readouterr()
            assert run("score", cfg) == 2
            assert (f"{path}: malformed index snapshot: unsupported index version: {version}"
                    in capsys.readouterr().err)

    def test_version_3_snapshot_is_a_data_error_asking_for_a_rerun(self, tmp_path, capsys):
        cfg = tiny_chain_config(tmp_path)
        for command in ("synth", "ingest", "index"):
            assert run(command, cfg) == 0, command
        path = tmp_path / "work" / "index_ngram.json"
        index = InvertedIndex.load(path)
        # The version-3 layout: the terms as \n-joined strings, then int32 blocks.
        blocks = ["\n".join(term_strings(index.postings)).encode(),
                  *(np.asarray(values, "<i4").tobytes() for values in (
                      index.doc_len, np.diff(index.postings.bounds), index.postings.rows))]
        header = {"format": "lexfuse-index", "version": 3, "doc_ids": list(index.doc_ids),
                  "config": dataclasses.asdict(index.config), "num_terms": len(index.postings),
                  "block_bytes": dict(zip(("terms", "doc_len", "doc_freq", "postings"),
                                          map(len, blocks)))}
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + b"".join(blocks))
        forget(tmp_path / "work", "index_ngram.json")
        capsys.readouterr()
        assert run("score", cfg) == 2
        err = capsys.readouterr().err
        assert (f"data error: {path}: malformed index snapshot: unsupported index version: 3 "
                "(this lexfuse reads version 4); rerun lexfuse index") in err
        assert "Traceback" not in err

    def test_outputs_before_a_failure_are_recorded(self, tmp_path, monkeypatch):
        cfg = tiny_chain_config(tmp_path)
        for command in ("synth", "ingest", "index", "score", "features"):
            assert run(command, cfg) == 0, command

        def fail(history, path):
            raise RuntimeError("log writer failed")

        monkeypatch.setattr(ltr, "write_training_log", fail)
        assert run("train", cfg) == 3
        work = tmp_path / "work"
        manifest = json.loads((work / "manifest.json").read_text())
        assert manifest["artifacts"]["model.json"]["sha256"] == cli._sha256(work / "model.json")

    @pytest.mark.parametrize("key, value", [("ltr_learning_rate", 2.0),
                                            ("ltr_min_samples_leaf", 0)])
    def test_out_of_range_ltr_value_is_usage_error(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "cfg.json", work_dir=str(tmp_path / "w"), **{key: value})
        assert run("train", cfg) == 1
        assert f"usage error: config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"q1": 5}', '{"q1": ["A",', '{"q1": [' + "9" * 5000 + "]}"],
                             ids=["not-a-list", "truncated", "integer-too-long"])
    def test_malformed_qrels_is_data_error_naming_the_file(self, tmp_path, capsys, text):
        run_path = tmp_path / "run.tsv"
        run_path.write_text("q1\tA\t1\t1.000000\tx\n")
        qrels_path = tmp_path / "qrels.json"
        qrels_path.write_text(text)
        cfg = write_config(tmp_path / "cfg.json", work_dir=str(tmp_path / "w"),
                           qrels_file=str(qrels_path), eval_run=str(run_path))
        capsys.readouterr()
        assert run("eval", cfg) == 2
        assert f"data error: {qrels_path}" in capsys.readouterr().err

    def test_non_finite_run_score_is_data_error_naming_its_line(self, tmp_path, capsys):
        run_path = tmp_path / "run.tsv"
        run_path.write_text("q1\tA\t1\t1.000000\tx\nq1\tB\t2\tinf\tx\n")
        qrels_path = tmp_path / "qrels.json"
        qrels_path.write_text('{"q1": ["A"]}')
        cfg = write_config(tmp_path / "cfg.json", work_dir=str(tmp_path / "w"),
                           qrels_file=str(qrels_path), eval_run=str(run_path))
        capsys.readouterr()
        assert run("eval", cfg) == 2
        assert f"data error: {run_path}:2: non-finite score 'inf'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"train": [], "tune": [], "test": 5}', '{"train": [],\n'],
                             ids=["not-a-list", "truncated"])
    def test_malformed_splits_is_data_error_naming_the_file(self, tmp_path, capsys, text):
        run_path = tmp_path / "run.tsv"
        run_path.write_text("q1\tA\t1\t1.000000\tx\n")
        qrels_path = tmp_path / "qrels.json"
        qrels_path.write_text('{"q1": ["A"]}')
        splits_path = tmp_path / "splits.json"
        splits_path.write_text(text)
        cfg = write_config(tmp_path / "cfg.json", work_dir=str(tmp_path / "w"),
                           qrels_file=str(qrels_path), eval_run=str(run_path),
                           splits_file=str(splits_path), eval_split="test")
        capsys.readouterr()
        assert run("eval", cfg) == 2
        assert f"data error: {splits_path}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("bm25_k1", -0.5), ("bm25_b", 2.0), ("qld_mu", 0)])
    def test_out_of_range_scorer_value_is_usage_error(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "cfg.json", work_dir=str(tmp_path / "w"), **{key: value})
        assert run("score", cfg) == 1
        assert f"usage error: config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("score", "bm25_b", "x"),
        ("score", "bm25_k1", None),
        ("score", "bm25_k1", True),
        ("score", "qld_mu", float("nan")),
        ("score", "qld_mu", "2000"),
        ("train", "ltr_num_trees", "many"),
        ("train", "ltr_num_trees", 2.5),
        ("train", "ltr_max_leaves", [31]),
        ("score", "bm25_k1", float("inf")),
        ("train", "ltr_min_samples_leaf", 1.0001),
        ("train", "ltr_ndcg_truncation", "10"),
        ("train", "ltr_validation_fraction", "a fifth"),
        ("train", "ltr_patience", 2.5),
    ])
    def test_non_numeric_or_non_integral_value_is_usage_error(self, tmp_path, capsys,
                                                              command, key, value):
        cfg = write_config(tmp_path / "cfg.json", work_dir=str(tmp_path / "w"), **{key: value})
        assert run(command, cfg) == 1
        assert f"usage error: config key '{key}'" in capsys.readouterr().err

    def test_integral_float_for_an_int_key_is_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", work_dir=str(tmp_path / "w"),
                           ltr_num_trees=40.0)
        assert run("train", cfg) == 2  # past the settings: features.tsv is missing
        assert "missing artifact" in capsys.readouterr().err

    @pytest.mark.parametrize("key, overrides", [
        ("grid_p", {"grid_p": [2.0]}), ("grid_p", {"grid_p": ["x"]}),
        ("grid_h", {"grid_h": [0]}), ("grid_h", {"grid_h": [2.5]}), ("grid_h", {"grid_h": []}),
        ("grid_l", {"grid_l": [-1]}), ("grid_l", {"grid_h": [3], "grid_l": [9]}),
        ("grid_t", {"grid_t": [0]}), ("grid_s", {"grid_s": ["1"]}), ("grid_s", {"grid_s": 1}),
        # Checked before any grid point compares l with h or breaks a tie on p.
        ("grid_h", {"grid_h": ["x"]}), ("grid_l", {"grid_l": [None]}),
        ("grid_p", {"filter_order": "date,query", "grid_p": ["x"]}),
    ])
    def test_bad_grid_value_is_usage_error(self, tmp_path, capsys, key, overrides):
        cfg = postprocess_inputs(tmp_path, **overrides)
        assert run("tune", cfg) == 1
        assert f"usage error: config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("post_p", 1.5), ("post_p", "x"), ("post_h", 0), ("post_h", 7.5), ("post_l", 8),
        ("post_t", None), ("post_s", -1),
    ])
    def test_bad_post_value_is_usage_error(self, tmp_path, capsys, key, value):
        cfg = postprocess_inputs(tmp_path, **{key: value})
        assert run("postprocess", cfg) == 1
        assert f"usage error: config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"p": 2.0, "h": 7}', '{"p": 0.5, "h": "x"}',
                                      '{"p": 2.0, "h": 7, "l": 1, "t": 1, "s": 0}',
                                      '{"p": 0.5, "h": "x", "l": 1, "t": 1, "s": 0}',
                                      '{"p": 0.5, "h": 3, "l": 1, "t": 1.5, "s": 0}',
                                      '[0.5, 7]', '{"p": 0.5,'])
    def test_bad_tuned_params_is_data_error_naming_the_file(self, tmp_path, capsys, text):
        cfg = postprocess_inputs(tmp_path)
        tuned = tmp_path / "w" / "tuned_params.json"
        tuned.write_text(text)
        assert run("postprocess", cfg) == 2
        assert f"data error: {tuned}: " in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"p": 0.5}', '{"p": 0.5, "h": 3, "l": 1, "t": 1}',
                                      '{}', '{"p": 0.5, "h": 3, "l": 1, "t": 1, "s": 0, "x": 1}'])
    def test_tuned_params_of_another_order_is_data_error(self, tmp_path, capsys, text):
        # Every filter of filter_order needs its parameters; none is skipped.
        cfg = postprocess_inputs(tmp_path)
        tuned = tmp_path / "w" / "tuned_params.json"
        tuned.write_text(text)
        assert run("postprocess", cfg) == 2
        err = capsys.readouterr().err
        assert f"data error: {tuned}: filter_order date,query,duplicate,cutoff needs " in err
        assert "rerun tune" in err
        assert not (tmp_path / "w" / "run_final.tsv").exists()

    def test_tune_under_another_order_then_postprocess(self, tmp_path, capsys):
        cfg = postprocess_inputs(tmp_path, filter_order="threshold")
        assert run("tune", cfg) == 0
        assert json.loads((tmp_path / "w" / "tuned_params.json").read_text()).keys() == {"p"}
        config = json.loads(Path(cfg).read_text())
        config["filter_order"] = "date,query,cutoff"
        assert run("postprocess", write_config(tmp_path / "cfg2.json", **config)) == 2
        assert "tuned_params.json: filter_order date,query,cutoff needs tuned parameters " \
               "{h, l, p}, got {'p': " in capsys.readouterr().err

    def test_order_without_parameters_tunes_one_point(self, tmp_path):
        cfg = postprocess_inputs(tmp_path, filter_order="date,query")
        assert run("tune", cfg) == 0
        report = (tmp_path / "w" / "tuning_report.tsv").read_text().splitlines()
        assert report[0] == "precision\trecall\tf_measure" and len(report) == 2
        assert (tmp_path / "w" / "tuned_params.json").read_text() == "{}"
        assert run("postprocess", cfg) == 0
        assert read_run_file(tmp_path / "w" / "run_final.tsv")["q1"].doc_ids() == ["A", "B"]

    def test_postprocess_inputs_are_usable(self, tmp_path):
        cfg = postprocess_inputs(tmp_path, grid_p=[0.5], grid_h=[3], grid_l=[1],
                                 grid_t=[1], grid_s=[0])
        assert run("tune", cfg) == 0
        assert run("postprocess", cfg) == 0

    def test_bad_task_value_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", task="weird")
        assert run("ingest", cfg) == 1

    @pytest.mark.parametrize("task, searched", [("case", "clean.jsonl"),
                                                ("statute", "queries.jsonl")])
    def test_query_id_without_a_document_names_the_queries_file_and_the_searched_file(
            self, tmp_path, capsys, task, searched):
        if task == "case":
            cfg = tiny_chain_config(tmp_path)
            assert run("synth", cfg) == 0
        else:
            cfg, _ = statute_chain_config(tmp_path)
        assert run("ingest", cfg) == 0
        settings = json.loads(Path(cfg).read_text())
        queries_file = tmp_path / "queries_with_a_blank.json"
        ids = json.loads(Path(settings["queries_file"]).read_text())
        queries_file.write_text(json.dumps(["", *ids]))
        cfg = write_config(Path(cfg), **dict(settings, queries_file=str(queries_file)))
        capsys.readouterr()
        assert run("score", cfg) == 2
        assert (f"data error: {queries_file}: no document in {tmp_path / 'work' / searched} "
                "for query ids ['']") in capsys.readouterr().err


# A value of the wrong type for every config key.
WRONG_TYPE = {
    "task": 5, "corpus_dir": 5, "queries_file": ["a"], "queries_dir": 5, "qrels_file": True,
    "splits_file": 1.5, "work_dir": 5, "seed": "x", "run_tag": 7, "lowercase": "false",
    "min_token_len": "x", "ngram_lo": 1.5, "ngram_hi": None, "bm25_k1": "3", "bm25_b": True,
    "qld_mu": [1], "rerank_depth": "x", "schema": 5, "external_scores": ["a"],
    "ltr_num_trees": 2.5, "ltr_max_leaves": "31", "ltr_learning_rate": None,
    "ltr_min_samples_leaf": {}, "ltr_ndcg_truncation": False, "ltr_validation_fraction": "0.2",
    "ltr_patience": float("nan"), "grid_p": 0.5, "grid_h": "4", "grid_l": {"a": 1},
    "grid_t": [1, "x"], "grid_s": True, "filter_order": ["date"], "metric": None,
    "eval_split": 3, "eval_run": 3, "post_p": "x", "post_h": 7.5, "post_l": None, "post_t": "1",
    "post_s": [2], "synth_dir": 1, "synth_num_queries": "x", "synth_num_candidates": 2.7,
    "synth_relevant_per_query": "many", "synth_vocab_size": None, "synth_overlap_strength": 1.5,
    "synth_decoys_per_query": True,
}

# (key named in the error, config, command): a value outside the key's range,
# or keys that disagree with each other.
OUT_OF_RANGE = [
    ("task", {"task": "weird"}, "eval"),
    ("run_tag", {"run_tag": "a\tb"}, "eval"),
    ("run_tag", {"run_tag": "a\nb"}, "eval"),
    ("run_tag", {"run_tag": "a\rb"}, "rerank"),
    ("min_token_len", {"min_token_len": 0}, "eval"),
    ("ngram_lo", {"ngram_lo": 0}, "eval"),
    ("ngram_hi", {"ngram_hi": 0}, "eval"),
    ("ngram_lo", {"ngram_lo": 3, "ngram_hi": 1}, "eval"),
    ("bm25_k1", {"bm25_k1": -0.5}, "eval"),
    ("bm25_k1", {"bm25_k1": 1e308}, "score"),  # scores overflow to inf
    ("bm25_b", {"bm25_b": 2.0}, "eval"),
    ("qld_mu", {"qld_mu": 0}, "eval"),
    ("qld_mu", {"qld_mu": 1e-320}, "score"),  # mu * p(t|C) underflows to 0
    ("rerank_depth", {"rerank_depth": -3}, "eval"),
    ("schema", {"schema": "nope"}, "features"),
    ("external_scores", {"external_scores": {"BM25": "x.tsv"}}, "eval"),
    *[("external_scores", {"external_scores": {name: "x.tsv"}}, "features")
      for name in ("query_length", "candidate_length", "article_length", "query_ref_num",
                   "doc_ref_num")],
    ("schema", {"external_scores": {"SAILER": "s.tsv"}}, "features"),
    ("schema", {"schema": "task3_v1", "external_scores": {"BERT": "b.tsv"}}, "features"),
    ("ltr_num_trees", {"ltr_num_trees": 0}, "eval"),
    ("ltr_max_leaves", {"ltr_max_leaves": 1}, "eval"),
    ("ltr_learning_rate", {"ltr_learning_rate": 0}, "eval"),
    ("ltr_min_samples_leaf", {"ltr_min_samples_leaf": 0}, "eval"),
    ("ltr_ndcg_truncation", {"ltr_ndcg_truncation": 0}, "eval"),
    ("ltr_validation_fraction", {"ltr_validation_fraction": 1.0}, "eval"),
    ("ltr_patience", {"ltr_patience": 0}, "eval"),
    ("grid_p", {"grid_p": [0.5, 1.5]}, "eval"),
    ("grid_h", {"grid_h": [0]}, "eval"),
    ("grid_l", {"grid_l": [-1]}, "eval"),
    ("grid_l", {"grid_h": [3], "grid_l": [9]}, "eval"),
    ("grid_t", {"grid_t": [0]}, "eval"),
    ("grid_s", {"grid_s": [-1]}, "eval"),
    ("filter_order", {"filter_order": "date,bogus"}, "tune"),
    ("filter_order", {"filter_order": "date,date,query"}, "tune"),
    ("metric", {"metric": "bogus"}, "eval"),
    ("metric", {"metric": "bogus"}, "tune"),
    ("eval_split", {"eval_split": "nope"}, "eval"),
    ("post_p", {"post_p": 1.5}, "eval"),
    ("post_h", {"post_h": 0}, "eval"),
    ("post_l", {"post_l": -1}, "eval"),
    ("post_l", {"post_l": 8}, "eval"),
    ("post_t", {"post_t": 0}, "eval"),
    ("post_s", {"post_s": -1}, "eval"),
    ("synth_num_queries", {"synth_num_queries": 0}, "synth"),
    ("synth_num_queries", {"synth_num_queries": 2.7}, "synth"),
    ("synth_num_candidates", {"synth_num_candidates": 0}, "synth"),
    ("synth_relevant_per_query", {"synth_relevant_per_query": 0}, "synth"),
    ("synth_vocab_size", {"synth_vocab_size": 9}, "synth"),
    ("synth_overlap_strength", {"synth_overlap_strength": 0}, "synth"),
    ("synth_decoys_per_query", {"synth_decoys_per_query": -1}, "synth"),
]

BAD_CONFIGS = (
    [pytest.param(f"config key '{key}'", {key: value}, "eval", id=f"type-{key}")
     for key, value in WRONG_TYPE.items()]
    + [pytest.param(f"config key '{key}'", config, command,
                    id=f"range-{command}-{'-'.join(f'{k}={v}' for k, v in config.items())}")
       for key, config, command in OUT_OF_RANGE]
    + [pytest.param("config must be a JSON object", text, "eval", id=f"not-an-object-{text}")
       for text in ("[1]", "null", "[]")]
)


class TestConfigTable:
    """Every config key is checked when the config loads, before any input is read."""

    @pytest.mark.parametrize("named, config, command", BAD_CONFIGS)
    def test_bad_config_exits_1_naming_the_key(self, tmp_path, capsys, monkeypatch,
                                               named, config, command):
        path = tmp_path / "cfg.json"
        path.write_text(config if isinstance(config, str) else json.dumps(
            {"work_dir": str(tmp_path / "w"), "synth_dir": str(tmp_path / "s"), **config}))

        def no_reads(self, *args, **kwargs):
            raise AssertionError("an input was read before the config was checked")

        for method in ("artifact", "file", "directory"):
            monkeypatch.setattr(cli.Stage, method, no_reads)
        assert run(command, str(path)) == 1
        assert f"usage error: {named}" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_every_key_has_a_wrong_type_case(self):
        assert set(WRONG_TYPE) == set(cli.DEFAULTS)

    def test_every_key_with_a_range_has_an_out_of_range_case(self):
        ranged = {key for key, (_, _, allowed) in cli.SETTINGS.items() if allowed}
        assert ranged | {"schema", "external_scores"} <= {key for key, _, _ in OUT_OF_RANGE}

    def test_schema_feature_without_a_source_names_both_keys(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", work_dir=str(tmp_path / "w"),
                           external_scores={"DELTA": "d.tsv"})
        assert run("features", cfg) == 1
        assert ("usage error: config key 'schema': task1_v1 has no source for SAILER; "
                "name their score files in config key 'external_scores'"
                in capsys.readouterr().err)

    def test_eval_split_names_splits_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", eval_split="test")
        assert run("ingest", cfg) == 1
        assert "'splits_file'" in capsys.readouterr().err

    def test_eval_split_missing_from_the_splits_file(self, tmp_path, capsys):
        (tmp_path / "run.tsv").write_text("q1\tA\t1\t1.000000\tx\n")
        (tmp_path / "qrels.json").write_text('{"q1": ["A"]}')
        (tmp_path / "splits.json").write_text('{"train": [], "tune": [], "test": ["q1"]}')
        cfg = write_config(tmp_path / "cfg.json", work_dir=str(tmp_path / "w"),
                           eval_run=str(tmp_path / "run.tsv"),
                           qrels_file=str(tmp_path / "qrels.json"),
                           splits_file=str(tmp_path / "splits.json"), eval_split="nope")
        assert run("eval", cfg) == 1
        assert "usage error: config key 'eval_split'" in capsys.readouterr().err


# The work-dir artifacts each stage reads, and the stage that reads them.
READERS = {
    "clean.jsonl": "index", "index_plain.json": "score", "index_ngram.json": "score",
    "scores_bm25.tsv": "features", "scores_qld.tsv": "features",
    "scores_bm25_ngram.tsv": "features", "features.tsv": "train", "model.json": "rerank",
    "run_raw.tsv": "tune", "tuned_params.json": "postprocess", "run_final.tsv": "eval",
    "manifest.json": "rerank",
}


DUMPS = tuple(f"scores_{name}.tsv" for name in scorers.SCORER_NAMES)


@pytest.fixture(scope="module")
def tiny_chain(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    cfg = tiny_chain_config(root, grid_p=[0.0, 0.5], grid_h=[4], grid_l=[0], grid_t=[1],
                            grid_s=[0])
    for command in ("synth", "ingest", "index", "score", "features", "train", "rerank",
                    "tune", "postprocess", "eval"):
        assert run(command, cfg) == 0, command
    shutil.copytree(root / "work", root / "pristine")
    return root, cfg


def fresh_work(root):
    """The tiny chain's work dir, as the full chain left it."""
    shutil.rmtree(root / "work")
    shutil.copytree(root / "pristine", root / "work")
    return root / "work"


class TestCorruptArtifacts:
    @pytest.mark.parametrize("name", sorted(READERS))
    def test_corrupt_artifact_is_a_data_error_naming_it(self, tiny_chain, capsys, name):
        root, cfg = tiny_chain
        rng = random.Random(name)
        for trial in range(10):
            work = fresh_work(root)
            data = bytearray((work / name).read_bytes())
            at = rng.randrange(len(data))
            if trial % 2:
                data[at] ^= 1 << rng.randrange(8)  # one bit of one byte flipped
            else:
                del data[at:]  # truncated
            (work / name).write_bytes(bytes(data))
            if name != "manifest.json":
                forget(work, name)  # reach the reader, not the manifest's digest check
            capsys.readouterr()
            code = run(READERS[name], cfg)
            out, err = capsys.readouterr()
            assert code in (0, 2), (trial, err)
            assert code == 0 or name in err, (trial, err)
            assert "Traceback" not in out + err
            assert not list(work.glob("*.tmp"))

    @pytest.mark.parametrize("name, edit, problem", [
        ("manifest.json", lambda text: text.replace('"sha256"', '"sha257"'),
         "not a lexfuse manifest"),
        ("scores_qld.tsv", lambda text: text.replace("\tc0", "\tx0", 1),
         "candidate 'x0"),
        ("features.tsv", lambda text: text.replace("\t0\t", "\t2\t", 1),
         "label must be -1, 0 or 1"),
        ("model.json", lambda text: text.replace('"query_length"', '"query_len"'),
         "does not match"),
        ("run_raw.tsv", lambda text: "", "no query to tune on"),
    ], ids=["manifest", "dump-candidate", "label", "model-schema", "empty-run"])
    def test_inconsistent_artifact_is_a_data_error_naming_it(self, tiny_chain, capsys,
                                                              name, edit, problem):
        root, cfg = tiny_chain
        work = fresh_work(root)
        (work / name).write_text(edit((work / name).read_text()))
        if name != "manifest.json":
            forget(work, name)
        capsys.readouterr()
        assert run(READERS[name], cfg) == 2
        err = capsys.readouterr().err
        assert f"data error: {work / name}" in err and problem in err

    def test_edited_features_table_is_refused_until_features_reruns(self, tiny_chain, capsys):
        root, cfg = tiny_chain
        work = fresh_work(root)
        lines = (work / "features.tsv").read_text().splitlines(keepends=True)
        fields = lines[1].split("\t")
        fields[3] = "12345"  # the first feature of the first row
        lines[1] = "\t".join(fields)
        (work / "features.tsv").write_text("".join(lines))
        for command in ("train", "rerank"):
            capsys.readouterr()
            assert run(command, cfg) == 2, command
            assert (f"data error: {work / 'features.tsv'}: modified since features wrote it "
                    f"(per {work / 'manifest.json'}); rerun features") in capsys.readouterr().err
        for command in ("features", "train", "rerank"):
            assert run(command, cfg) == 0, command
        assert (work / "run_raw.tsv").read_bytes() == (
            root / "pristine" / "run_raw.tsv").read_bytes()

    @pytest.mark.parametrize("name", sorted(set(READERS) - {"manifest.json"}))
    def test_edited_artifact_is_refused_naming_its_writer(self, tiny_chain, capsys, name):
        root, cfg = tiny_chain
        work = fresh_work(root)
        writer = json.loads((work / "manifest.json").read_text())["artifacts"][name]["command"]
        with open(work / name, "a", encoding="utf-8") as fh:
            fh.write("\n")
        capsys.readouterr()
        assert run(READERS[name], cfg) == 2
        assert (f"data error: {work / name}: modified since {writer} wrote it"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("name, command, edit", [
        ("clean.jsonl", "index", lambda doc: doc.update(body=5)),
        ("clean.jsonl", "index", lambda doc: doc.update(summary=7)),
        ("clean.jsonl", "index", lambda doc: doc.update(id=7)),
        ("clean.jsonl", "features", lambda doc: doc.update(token_length=True)),
        ("model.json", "rerank", lambda model: model["trees"][0]["threshold"].__setitem__(0, "x")),
        ("model.json", "rerank", lambda model: model["trees"][0]["value"].__setitem__(-1, "y")),
        ("index_ngram.json", "score", lambda index: index["config"].update(ngram_hi="3")),
    ], ids=["body", "summary", "id", "token-length", "threshold", "leaf-value", "ngram-hi"])
    def test_wrong_typed_field_is_a_data_error_naming_it(self, tiny_chain, capsys, name,
                                                         command, edit):
        root, cfg = tiny_chain
        work = fresh_work(root)
        lines = (work / name).read_bytes().split(b"\n")
        # An index snapshot's JSON header; the middle record of clean.jsonl; a JSON file's line.
        at = 0 if name.startswith("index_") else (len(lines) - 1) // 2
        record = json.loads(lines[at])
        edit(record)
        lines[at] = json.dumps(record).encode()
        (work / name).write_bytes(b"\n".join(lines))
        forget(work, name)
        capsys.readouterr()
        assert run(command, cfg) == 2
        where = f"{work / name}:{at + 1}" if name.endswith(".jsonl") else f"{work / name}"
        err = capsys.readouterr().err
        assert f"data error: {where}: " in err and "Traceback" not in err

    @pytest.mark.parametrize("trees", [
        [{"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1],
          "value": [1e308]}] * 2,
        [{"feature": [0, -1, -1], "threshold": [9.5, 0.0, 0.0], "left": [1, -1, -1],
          "right": [2, -1, -1], "value": [0.0, 1e308, -1e308]}],
    ], ids=["sum", "spread"])
    def test_model_whose_leaves_overflow_names_model_json(self, tiny_chain, capsys, trees):
        root, cfg = tiny_chain
        work = fresh_work(root)
        model = json.loads((work / "model.json").read_text())
        model["trees"] = trees
        (work / "model.json").write_text(json.dumps(model))
        forget(work, "model.json")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would exit 3
            assert run("rerank", cfg) == 2
        err = capsys.readouterr().err
        assert f"data error: {work / 'model.json'}: " in err and "float range" in err
        assert (work / "run_raw.tsv").read_bytes() == (
            root / "pristine" / "run_raw.tsv").read_bytes()

    def test_internal_key_error_is_exit_3(self, tiny_chain, capsys, monkeypatch):
        root, cfg = tiny_chain
        fresh_work(root)

        def broken(runs, qrels):
            raise KeyError("boom")

        monkeypatch.setattr(cli.evaluation, "mean_average_precision", broken)
        assert run("eval", cfg) == 3
        assert "internal error: KeyError: 'boom'" in capsys.readouterr().err

    @staticmethod
    def _features_with_nan_external_score(root, cfg, capsys, in_table):
        """Exit code and stderr of ``features`` when one DELTA score reads nan; the
        edited pair is a table row if ``in_table``, else outside every pool list."""
        work = fresh_work(root)
        config = json.loads(Path(cfg).read_text())
        rows = {tuple(line.split("\t")[:2])
                for line in (work / "features.tsv").read_text().splitlines()[1:]}
        lines = Path(config["external_scores"]["DELTA"]).read_text().splitlines()
        pairs = [tuple(line.split("\t")[:2]) for line in lines]
        if in_table:
            at = next(i for i, pair in enumerate(pairs) if pair in rows)
            qid, cid = pairs[at]
        else:  # a new line for a query and candidate that both have rows, but not together
            qid, cid = next((q, c) for q, _ in sorted(rows) for _, c in sorted(rows)
                            if (q, c) not in rows and (q, c) not in pairs)
            at = len(lines)
            lines.append("")
        lines[at] = f"{qid}\t{cid}\tnan"
        path = root / "nan_DELTA.tsv"
        path.write_text("\n".join(lines) + "\n")
        config["external_scores"]["DELTA"] = str(path)
        cfg = write_config(root / "cfg_nan.json", **config)
        capsys.readouterr()
        return run("features", cfg), capsys.readouterr().err, f"{path}:{at + 1}"

    def test_non_finite_external_score_names_its_file(self, tiny_chain, capsys):
        code, err, where = self._features_with_nan_external_score(*tiny_chain, capsys, True)
        assert code == 2
        assert f"data error: {where}: non-finite score 'nan'" in err

    def test_non_finite_external_score_outside_the_table_is_refused(self, tiny_chain, capsys):
        # The pair makes no row, but its nan would scramble the ranks of the query's rows.
        code, err, where = self._features_with_nan_external_score(*tiny_chain, capsys, False)
        assert code == 2
        assert f"data error: {where}: non-finite score 'nan'" in err

    @pytest.mark.parametrize("command", ["train", "rerank"])
    def test_non_finite_feature_names_its_line(self, tiny_chain, capsys, command):
        root, cfg = tiny_chain
        work = fresh_work(root)
        lines = (work / "features.tsv").read_text().splitlines(keepends=True)
        at = len(lines) // 2
        fields = lines[at].split("\t")
        fields[4] = "nan"  # the second feature of the row
        lines[at] = "\t".join(fields)
        (work / "features.tsv").write_text("".join(lines))
        forget(work, "features.tsv")
        capsys.readouterr()
        assert run(command, cfg) == 2
        assert (f"data error: {work / 'features.tsv'}:{at + 1}: non-finite feature value"
                in capsys.readouterr().err)
        assert (work / "run_raw.tsv").read_bytes() == (
            root / "pristine" / "run_raw.tsv").read_bytes()

    def test_validation_fraction_leaving_no_training_queries(self, tiny_chain, capsys):
        root, cfg = tiny_chain
        fresh_work(root)
        cfg = write_config(root / "cfg_fraction.json", **dict(
            json.loads(Path(cfg).read_text()), ltr_validation_fraction=0.999))
        assert run("train", cfg) == 2
        err = capsys.readouterr().err
        assert "features.tsv" in err and "ltr_validation_fraction 0.999" in err
        assert "4 of the 4 queries" in err


# Replacement tokens: not a number, an overflowing float, an integer past float
# precision, an empty string, a tab, a byte that is not UTF-8 and a JSON string
# holding a lone surrogate.
ODD_TOKENS = (b"nan", b"1e999", b"1" * 30, b'""', b"\t", b"\xff", b'"\\ud800"')
# Each user input the mutations edit, and the first stage that reads it.
FIRST_READER = {"queries.json": "score", "qrels.json": "features", "splits.json": "train",
                "external_SAILER.tsv": "features"}
STAGES = ("ingest", "index", "score", "features", "train", "rerank", "tune", "postprocess",
          "eval")


def reshaped(rng, value):
    """``value`` with one list made an object, or one of its ids made an integer."""
    if isinstance(value, dict):
        key = rng.choice(sorted(value))
        value[key] = reshaped(rng, value[key])
    elif not value or rng.random() < 0.5:
        value = {str(i): item for i, item in enumerate(value)}
    else:
        value[rng.randrange(len(value))] = rng.randrange(1000)
    return value


def mutated(rng, data, json_file):
    """``data`` with one line dropped, repeated or swapped, one token replaced by an
    odd one or, in a JSON file, one list or id of another shape."""
    lines = data.splitlines(keepends=True)
    kind = rng.choice(("drop", "repeat", "swap", "token") + (("shape",) if json_file else ()))
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    if kind == "drop":
        del lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "token":
        token = rng.choice(list(re.finditer(rb'"[^"\n]*"|[^\s\[\]{},:"]+', data)))
        return data[:token.start()] + rng.choice(ODD_TOKENS) + data[token.end():]
    else:
        return json.dumps(reshaped(rng, json.loads(data)), indent=1).encode()
    return b"".join(lines)


class TestMutatedUserInputs:
    def test_no_stage_crashes(self, tmp_path, capsys):
        # Every stage from the first reader of a mutated input through eval exits 0,
        # or exits 2 naming a file; none exits 3.
        cfg = tiny_chain_config(tmp_path, splits_file=str(tmp_path / "synth" / "splits.json"),
                                grid_p=[0.0, 0.5], grid_h=[4], grid_l=[0], grid_t=[1],
                                grid_s=[0, 1])
        synth_dir, work = tmp_path / "synth", tmp_path / "work"
        assert run("synth", cfg) == 0
        snapshots = {}
        for stage in STAGES:
            if stage in FIRST_READER.values():
                snapshots[stage] = tmp_path / f"before_{stage}"
                shutil.copytree(work, snapshots[stage])
            assert run(stage, cfg) == 0, stage
        rng = random.Random(16)
        for trial in range(96):
            name = sorted(FIRST_READER)[trial % len(FIRST_READER)]
            original = (synth_dir / name).read_bytes()
            (synth_dir / name).write_bytes(mutated(rng, original, name.endswith(".json")))
            shutil.rmtree(work)
            shutil.copytree(snapshots[FIRST_READER[name]], work)
            for stage in STAGES[STAGES.index(FIRST_READER[name]):]:
                capsys.readouterr()
                code = run(stage, cfg)
                err = capsys.readouterr().err
                assert code == 0 or (code == 2 and str(tmp_path) in err), (trial, name, stage, err)
            (synth_dir / name).write_bytes(original)


class TestLibraryDefaults:
    @pytest.mark.parametrize("default, prefix", [
        (ltr.TrainConfig(), "ltr_"), (synth.SyntheticSpec(), "synth_"),
        (scorers.Bm25Params(), "bm25_"), (scorers.QldParams(), "qld_"),
    ], ids=["TrainConfig", "SyntheticSpec", "Bm25Params", "QldParams"])
    def test_match_the_settings_table(self, default, prefix):
        # A field with no prefixed key (seed) takes the key of its own name.
        for field in dataclasses.fields(default):
            key = prefix + field.name if prefix + field.name in cli.DEFAULTS else field.name
            assert getattr(default, field.name) == cli.DEFAULTS[key], key


class TestFeaturesCommand:
    def test_warning_counts_the_qrel_pairs_outside_the_table(self, tiny_chain, capsys):
        root, cfg = tiny_chain
        work = fresh_work(root)
        settings = json.loads(Path(cfg).read_text())
        qrels = load_qrels(settings["qrels_file"])
        qrels[min(qrels)].add("ghost")
        qrels["no-such-query"] = {"c0"}
        path = root / "qrels_ghost.json"
        path.write_text(json.dumps({qid: sorted(docs) for qid, docs in qrels.items()}))
        capsys.readouterr()
        assert run("features", write_config(root / "cfg_ghost.json", **dict(
            settings, qrels_file=str(path), rerank_depth=1))) == 0
        rows = (work / "features.tsv").read_text().splitlines()[1:]
        pairs = {tuple(row.split("\t")[:2]) for row in rows}
        unseen = sum((qid, d) not in pairs for qid, docs in qrels.items() for d in docs)
        assert unseen > 2  # the two made-up pairs and relevant documents below depth 1
        assert (f"features: warning: {unseen} qrel pairs never appear in the table"
                in capsys.readouterr().out)

    @staticmethod
    def _record_dump_reads(monkeypatch):
        """The (file name, limit) of each ``scores_*.tsv`` read ``features`` makes, in order."""
        calls = []
        read = scorers.read_score_dump
        monkeypatch.setattr(scorers, "read_score_dump", lambda path, limit=None:
                            calls.append((Path(path).name, limit)) or read(path, limit))
        return calls

    @pytest.mark.parametrize("forgotten", [(), ("scores_qld.tsv",), DUMPS],
                             ids=["verified", "one", "none-verified"])
    def test_only_verified_dumps_are_read_to_the_depth(self, tiny_chain, monkeypatch,
                                                        forgotten):
        root, cfg = tiny_chain
        work = fresh_work(root)
        for name in forgotten:
            forget(work, name)
        calls = self._record_dump_reads(monkeypatch)
        assert run("features", cfg) == 0
        assert calls == [(name, None if name in forgotten else 10) for name in DUMPS]
        assert (work / "features.tsv").read_bytes() == (
            root / "pristine" / "features.tsv").read_bytes()

    @staticmethod
    def _break_a_row_past_the_depth(work, name):
        """Make the first query's last row of dump ``name`` non-finite; returns its line."""
        lines = (work / name).read_text().splitlines(keepends=True)
        qid = lines[0].split("\t")[0]
        at = max(i for i, line in enumerate(lines) if line.startswith(qid + "\t"))
        assert at >= 10  # below rerank_depth
        lines[at] = "\t".join(lines[at].split("\t")[:2] + ["nan\n"])
        (work / name).write_text("".join(lines))
        return at + 1

    def test_unverified_dump_is_checked_past_the_depth(self, tiny_chain, capsys):
        root, cfg = tiny_chain
        work = fresh_work(root)
        lineno = self._break_a_row_past_the_depth(work, "scores_qld.tsv")
        forget(work, "scores_qld.tsv")
        capsys.readouterr()
        assert run("features", cfg) == 2
        assert (f"data error: {work / 'scores_qld.tsv'}:{lineno}: non-finite score 'nan'"
                in capsys.readouterr().err)

    def test_dump_edited_after_score_is_refused_unread(self, tiny_chain, capsys, monkeypatch):
        root, cfg = tiny_chain
        work = fresh_work(root)
        self._break_a_row_past_the_depth(work, "scores_qld.tsv")
        calls = self._record_dump_reads(monkeypatch)
        capsys.readouterr()
        assert run("features", cfg) == 2
        assert (f"data error: {work / 'scores_qld.tsv'}: modified since score wrote it"
                in capsys.readouterr().err)
        assert calls == [("scores_bm25.tsv", 10)]
        assert (work / "features.tsv").read_bytes() == (
            root / "pristine" / "features.tsv").read_bytes()


class TestStageReads:
    def test_case_features_reads_clean_jsonl_once(self, tmp_path, monkeypatch):
        cfg = tiny_chain_config(tmp_path)
        for command in ("synth", "ingest", "index", "score"):
            assert run(command, cfg) == 0, command
        calls = []
        read = cli.ingest.read_clean_jsonl

        def counting(path):
            calls.append(path)
            return read(path)

        monkeypatch.setattr(cli.ingest, "read_clean_jsonl", counting)
        assert run("features", cfg) == 0
        assert [p.name for p in calls] == ["clean.jsonl"]


class TestAtomicWrite:
    def test_failed_writer_leaves_no_temp_and_keeps_target(self, tmp_path):
        target = tmp_path / "artifact.json"
        target.write_text("old contents")

        def writer(tmp):
            tmp.write_text("partial")
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError, match="writer failed"):
            cli._atomic_write(target, writer)
        assert not list(tmp_path.glob("*.tmp"))
        assert target.read_text() == "old contents"

    def test_temp_names_are_unique_and_in_target_dir(self, tmp_path):
        target = tmp_path / "artifact.json"
        seen = []

        def writer(tmp):
            seen.append(tmp)
            tmp.write_text(str(len(seen)))

        cli._atomic_write(target, writer)
        cli._atomic_write(target, writer)
        assert seen[0] != seen[1]
        assert all(t.parent == tmp_path and t.name.endswith(".tmp") for t in seen)
        assert target.read_text() == "2"
        assert not list(tmp_path.glob("*.tmp"))


# Runs CLI stages in a fresh interpreter; argv: results path, then a JSON list
# of [command, config] pairs. Records whether numpy is loaded after each step.
_NUMPY_PROBE = """
import json, sys
from lexfuse import cli
seen = [["import", 0, "numpy" in sys.modules]]
for command, cfg in json.loads(sys.argv[2]):
    seen.append([command, cli.main([command, "--config", cfg]), "numpy" in sys.modules])
with open(sys.argv[1], "w") as fh:
    json.dump(seen, fh)
"""


class TestNumpyFreeStages:
    def test_light_stages_never_import_numpy(self, tmp_path):
        grid = dict(grid_p=[0.0, 0.5], grid_h=[4], grid_l=[0], grid_t=[1], grid_s=[0])
        cfg = tiny_chain_config(tmp_path, **grid)
        for command in ("synth", "ingest", "index", "score", "features", "train", "rerank"):
            assert run(command, cfg) == 0, command
        statute = tmp_path / "statute"
        statute.mkdir()
        articles, questions, _ = build_statute_fixture(statute)
        statute_cfg = write_config(
            statute / "cfg.json", task="statute", corpus_dir=str(articles),
            queries_dir=str(questions), work_dir=str(statute / "work"))
        steps = [["synth", cfg], ["ingest", cfg], ["ingest", statute_cfg],
                 ["tune", cfg], ["postprocess", cfg], ["eval", cfg]]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        results = tmp_path / "numpy_probe.json"
        proc = subprocess.run(
            [sys.executable, "-c", _NUMPY_PROBE, str(results), json.dumps(steps)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        expected = [["import", 0, False]] + [[command, 0, False] for command, _ in steps]
        assert json.loads(results.read_text()) == expected
