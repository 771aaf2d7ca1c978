"""Synthetic corpus: parseability, style separation, manifest wiring."""

import subprocess
import sys

import pytest

from codeshift import corpus, synth
from codeshift.config import DEFAULT_CONFIG
from codeshift import extraction as ex


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    summary = synth.generate_corpus(root, seed=4, timeline_files=6, project_files=6,
                                    author_files={"alice": 6, "adam": 3, "mira": 3, "bogdan": 3})
    return root, summary


def test_summary_counts(small_corpus):
    root, summary = small_corpus
    assert summary["files"] == 4 * 6 + 2 * 6 + 15
    assert set(summary["manifests"]) == {"timeline", "project", "author"}


def test_default_corpus_size(tmp_path):
    summary = synth.generate_corpus(tmp_path, seed=0)
    assert 280 <= summary["files"] <= 330  # the hermetic study wants ~300 files


def test_every_file_parses_and_extracts(small_corpus):
    root, _ = small_corpus
    java_files = sorted(root.rglob("*.java"))
    assert java_files
    for path in java_files:
        diagnostics = []
        tree = ex.parse_java_lite(ex.tokenize_java(path.read_text(encoding="utf-8")), diagnostics)
        assert diagnostics == [], f"{path} fell back to recovery: {diagnostics}"
        samples = ex.extract_method_samples(tree)
        assert samples, f"{path} produced no method samples"
        for s in samples:
            assert s.label in synth.LABELS


def test_styles_use_disjoint_identifier_lexicons(small_corpus):
    root, _ = small_corpus
    a_text = "".join(p.read_text() for p in sorted((root / "project" / "alpha").glob("*.java")))
    b_text = "".join(p.read_text() for p in sorted((root / "project" / "beta").glob("*.java")))
    a_idents = {t.text for t in ex.tokenize_java(a_text) if t.kind == "identifier"}
    b_idents = {t.text for t in ex.tokenize_java(b_text) if t.kind == "identifier"}
    # the label names are shared by design; everything else should differ
    overlap = (a_idents & b_idents) - set(synth.LABELS) - {"t", "target"}
    assert not overlap, f"style lexicons overlap: {overlap}"
    assert "while" not in a_text or a_text.count("while") < a_text.count("for")
    assert b_text.count("while") > b_text.count("for (")


def test_manifests_load_and_assign(small_corpus):
    root, summary = small_corpus
    for shift, manifest_path in summary["manifests"].items():
        manifest = corpus.load_manifest(manifest_path)
        assert manifest.shift_kind == shift
        assignment = corpus.assign_splits(manifest, val_fraction=0.2)
        assert set(assignment.splits) >= {"train", "validation", "test1"}
        for split, files in assignment.splits.items():
            assert files, f"{shift}:{split} empty"


def test_author_filter_counts(small_corpus):
    root, _ = small_corpus
    manifest = corpus.load_manifest(root / "manifest_author.json")
    assignment = corpus.assign_splits(manifest, val_fraction=0.2)
    # alice's 6 files split 5/1; the other authors keep all theirs
    assert len(assignment.splits["train"]) + len(assignment.splits["validation"]) == 6
    assert len(assignment.splits["test1"]) == 3
    assert len(assignment.splits["test3"]) == 3


def test_generation_is_deterministic_across_processes(tmp_path):
    script = (
        "import sys\n"
        "from codeshift import synth\n"
        "synth.generate_corpus(sys.argv[1], seed=11, timeline_files=3, project_files=3,\n"
        "                      author_files={'alice': 3, 'bogdan': 2})\n"
    )
    for sub in ("one", "two"):
        subprocess.run([sys.executable, "-c", script, str(tmp_path / sub)], check=True)
    ones = sorted((tmp_path / "one").rglob("*"))
    twos = sorted((tmp_path / "two").rglob("*"))
    assert [p.name for p in ones] == [p.name for p in twos]
    for a, b in zip(ones, twos):
        if a.is_file():
            assert a.read_bytes() == b.read_bytes(), a.name


def test_author_outside_the_author_table_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="zed"):
        synth.generate_corpus(tmp_path, timeline_files=1, project_files=1, author_files={"alice": 2, "zed": 1})
    assert not any(tmp_path.iterdir())


def test_config_authors_are_the_author_shift_table_in_order():
    # config validates author_files against its defaults' names, since it cannot import synth
    table = [group[1] for shift, *_, groups in synth.SNAPSHOTS if shift == "author" for group in groups]
    assert list(DEFAULT_CONFIG["synth"]["author_files"]) == table
