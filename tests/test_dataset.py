from dataclasses import replace

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
    load_instance,
    write_instance,
)
from reforacle.pipeline import validate_instance


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

    def test_a_meta_without_variant_or_seed_loads_a_base_instance(self, tmp_path):
        java_fixtures.write_corpus(tmp_path, [java_fixtures.CE_FIXTURES[0]])
        (inst,) = load_corpus(tmp_path).instances
        assert (inst.variant_tag, inst.seed) == ("", None)

    def test_variant_and_seed_are_read_from_meta(self, tmp_path):
        inst_dir = java_fixtures.write_instance(tmp_path, java_fixtures.CE_FIXTURES[0])
        with (inst_dir / "meta").open("a") as meta:
            meta.write("variant=mt-7-CO\nseed=7\n")
        (inst,) = load_corpus(tmp_path).instances
        assert (inst.variant_tag, inst.seed) == ("mt-7-CO", 7)

    def test_a_seed_that_is_not_an_integer_names_the_directory(self, tmp_path):
        inst_dir = java_fixtures.write_instance(tmp_path, java_fixtures.CE_FIXTURES[0])
        with (inst_dir / "meta").open("a") as meta:
            meta.write("variant=mt-7-CO\nseed=seven\n")
        with pytest.raises(MissingMetadata) as exc:
            load_corpus(tmp_path)
        assert str(exc.value) == f"{inst_dir}: seed 'seven' is not an integer"

    def test_empty_source_dir(self, tmp_path):
        fixture = java_fixtures.CE_FIXTURES[0]
        inst_dir = java_fixtures.write_instance(tmp_path, fixture)
        for f in (inst_dir / "resulting").glob("*.java"):
            f.unlink()
        with pytest.raises(EmptySourceSet):
            load_corpus(tmp_path)

    def test_a_written_base_instance_loads_back_equal(self, corpus_root, tmp_path):
        inst = by_id(load_corpus(corpus_root))["bc-fig-pushdown"]
        assert inst.exposing_test is not None
        inst_dir = write_instance(inst, tmp_path)
        assert (inst_dir / "meta").read_text() == (
            f"id={inst.id}\ntool={inst.tool}\nrefactoring={inst.refactoring_type}\nlabel=BC\n")
        assert load_instance(inst_dir) == inst

    def test_a_written_variant_loads_back_equal(self, corpus_root, tmp_path):
        base = by_id(load_corpus(corpus_root))["ce-fig-inline-variable"]
        (path, content), *rest = base.original.files
        inst = replace(base, original=SourceSet(files=((path, "// note 7\n" + content), *rest)),
                       variant_tag="mt-7-CO", seed=7)
        inst_dir = write_instance(inst, tmp_path)
        assert (inst_dir / "meta").read_text().endswith("variant=mt-7-CO\nseed=7\n")
        assert load_instance(inst_dir) == inst

    def test_deterministic_serialization(self, corpus_root):
        a = load_corpus(corpus_root).instances
        b = load_corpus(corpus_root).instances
        assert a == b


def by_id(corpus):
    return {inst.id: inst for inst in corpus.instances}


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
        inst = by_id(corpus)["ce-fig-inline-variable"]
        row = validate_instance(inst, toolchain)
        assert row["original_compiles"]
        assert not row["resulting_compiles"]
        assert row["ground_truth_confirmed"]

    def test_bc_confirmed(self, corpus_root):
        corpus = load_corpus(corpus_root)
        toolchain = mock_for(corpus)
        inst = by_id(corpus)["bc-fig-pushdown"]
        row = validate_instance(inst, toolchain)
        assert row["test_discriminates"]
        assert row["ground_truth_confirmed"]

    def test_identity_preserving_confirmed(self, corpus_root):
        corpus = load_corpus(corpus_root)
        inst = by_id(corpus)["pr-identity"]
        row = validate_instance(inst, java_executor.MockToolchain())
        assert row["original_compiles"] and row["resulting_compiles"]
        assert row["ground_truth_confirmed"]

    def test_label_mismatch_not_confirmed(self, corpus_root):
        corpus = load_corpus(corpus_root)
        inst = by_id(corpus)["ce-removed-method"]
        # unscripted mock compiles everything: CE expectation must fail
        row = validate_instance(inst, java_executor.MockToolchain())
        assert not row["ground_truth_confirmed"]
        assert not row["quarantined"]

    def test_every_fixture_instance_confirmed_with_real_jdk(self, corpus_root, jdk):
        corpus = load_corpus(corpus_root)
        unconfirmed = []
        for inst in corpus.instances:
            row = validate_instance(inst, jdk)
            if not row["ground_truth_confirmed"]:
                unconfirmed.append(row)
        assert not unconfirmed, unconfirmed

    def test_toolchain_failure_quarantines(self, corpus_root):
        corpus = load_corpus(corpus_root)

        class Broken:
            def version(self):
                return "broken"

            def compile(self, src):
                raise java_executor.ToolchainUnavailable("gone")

        row = validate_instance(corpus.instances[0], Broken())
        assert row["quarantined"]
        assert not row["ground_truth_confirmed"]
