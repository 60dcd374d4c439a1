import pytest

import java_fixtures
from reforacle import java_executor
from reforacle.dataset import (
    BugInstance,
    DuplicateId,
    EmptySourceSet,
    MissingMetadata,
    MissingTestForBC,
    SourceSet,
    load_corpus,
    validate_instance,
)


class TestSourceSet:
    def test_rejects_empty(self):
        with pytest.raises(EmptySourceSet):
            SourceSet(files=())

    def test_rejects_duplicate_paths(self):
        with pytest.raises(ValueError):
            SourceSet(files=(("A.java", "class A {}"), ("A.java", "class A {}")))

    def test_rejects_non_java(self):
        with pytest.raises(ValueError):
            SourceSet(files=(("A.txt", "x"),))

    def test_rejects_empty_content(self):
        with pytest.raises(ValueError):
            SourceSet(files=(("A.java", ""),))


class TestBugInstance:
    def test_bc_requires_test(self):
        src = SourceSet(files=(("A.java", "class A {}\n"),))
        with pytest.raises(MissingTestForBC):
            BugInstance(
                id="x",
                tool="Eclipse",
                refactoring_type="Move Method",
                label="BC",
                original=src,
                resulting=src,
            )

    def test_non_bc_rejects_test(self):
        src = SourceSet(files=(("A.java", "class A {}\n"),))
        with pytest.raises(ValueError):
            BugInstance(
                id="x",
                tool="Eclipse",
                refactoring_type="Move Method",
                label="CE",
                original=src,
                resulting=src,
                exposing_test="class T {}",
            )


class TestLoadCorpus:
    def test_minimal_ce_corpus(self, tmp_path):
        java_fixtures.write_corpus(tmp_path, [java_fixtures.CE_FIXTURES[0]])
        corpus = load_corpus(tmp_path)
        assert corpus.total == 1
        assert corpus.n_ce == 1
        assert corpus.n_bc == 0

    def test_full_fixture_corpus_counts(self, corpus_root):
        corpus = load_corpus(corpus_root)
        assert corpus.total == 20
        assert corpus.n_bc == 6
        assert corpus.n_ce == 8
        assert corpus.n_preserving == 6

    def test_benchmark_sized_corpus_counts(self, tmp_path):
        java_fixtures.write_corpus(tmp_path, java_fixtures.synthetic_benchmark())
        corpus = load_corpus(tmp_path)
        assert corpus.total == 226
        assert corpus.n_ce == 185
        assert corpus.n_bc == 41

    def test_bc_without_test_dir(self, tmp_path):
        fixture = java_fixtures.BC_FIXTURES[0]
        inst_dir = java_fixtures.write_instance(tmp_path, fixture)
        (inst_dir / "test" / "Test.java").unlink()
        (inst_dir / "test").rmdir()
        with pytest.raises(MissingTestForBC) as exc:
            load_corpus(tmp_path)
        assert fixture.id in str(exc.value)

    def test_duplicate_id(self, tmp_path):
        fixture = java_fixtures.CE_FIXTURES[0]
        java_fixtures.write_instance(tmp_path, fixture)
        other_dir = tmp_path / "instances" / "other-dir"
        import shutil

        shutil.copytree(tmp_path / "instances" / fixture.id, other_dir)
        with pytest.raises(DuplicateId):
            load_corpus(tmp_path)

    def test_missing_meta(self, tmp_path):
        fixture = java_fixtures.CE_FIXTURES[0]
        inst_dir = java_fixtures.write_instance(tmp_path, fixture)
        (inst_dir / "meta").unlink()
        with pytest.raises(MissingMetadata) as exc:
            load_corpus(tmp_path)
        assert fixture.id in str(exc.value)

    def test_empty_source_dir(self, tmp_path):
        fixture = java_fixtures.CE_FIXTURES[0]
        inst_dir = java_fixtures.write_instance(tmp_path, fixture)
        for f in (inst_dir / "resulting").glob("*.java"):
            f.unlink()
        with pytest.raises(EmptySourceSet):
            load_corpus(tmp_path)

    def test_deterministic_serialization(self, corpus_root):
        a = load_corpus(corpus_root).serialize()
        b = load_corpus(corpus_root).serialize()
        assert a == b


def mock_for(corpus):
    """Mock toolchain scripted to match every fixture's ground truth."""
    toolchain = java_executor.MockToolchain()
    for inst in corpus.instances:
        if inst.label == "CE":
            toolchain.script_compile(inst.resulting, success=False, diagnostics="bad")
        if inst.label == "BC":
            toolchain.script_run(inst.original, inst.exposing_test, java_executor.PASS)
            toolchain.script_run(inst.resulting, inst.exposing_test, java_executor.FAIL)
    return toolchain


class TestValidateInstance:
    def test_ce_confirmed(self, corpus_root):
        corpus = load_corpus(corpus_root)
        toolchain = mock_for(corpus)
        inst = corpus.by_id("ce-fig-inline-variable")
        report = validate_instance(inst, toolchain)
        assert report.original_compiles
        assert not report.resulting_compiles
        assert report.ground_truth_confirmed

    def test_bc_confirmed(self, corpus_root):
        corpus = load_corpus(corpus_root)
        toolchain = mock_for(corpus)
        inst = corpus.by_id("bc-fig-pushdown")
        report = validate_instance(inst, toolchain)
        assert report.test_discriminates
        assert report.ground_truth_confirmed

    def test_identity_preserving_confirmed(self, corpus_root):
        corpus = load_corpus(corpus_root)
        inst = corpus.by_id("pr-identity")
        report = validate_instance(inst, java_executor.MockToolchain())
        assert report.original_compiles and report.resulting_compiles
        assert report.ground_truth_confirmed

    def test_label_mismatch_not_confirmed(self, corpus_root):
        corpus = load_corpus(corpus_root)
        inst = corpus.by_id("ce-removed-method")
        # unscripted mock compiles everything: CE expectation must fail
        report = validate_instance(inst, java_executor.MockToolchain())
        assert not report.ground_truth_confirmed
        assert not report.quarantined

    def test_every_fixture_instance_confirmed_with_real_jdk(self, corpus_root, junit_jdk):
        corpus = load_corpus(corpus_root)
        unconfirmed = []
        for inst in corpus.instances:
            report = validate_instance(inst, junit_jdk)
            if not report.ground_truth_confirmed:
                unconfirmed.append((inst.id, report.logs))
        assert not unconfirmed, unconfirmed

    def test_toolchain_failure_quarantines(self, corpus_root):
        corpus = load_corpus(corpus_root)

        class Broken:
            def version(self):
                return "broken"

            def compile(self, *a, **k):
                raise java_executor.ToolchainUnavailable("gone")

        report = validate_instance(corpus.instances[0], Broken())
        assert report.quarantined
        assert not report.ground_truth_confirmed
