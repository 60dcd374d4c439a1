import hashlib
import json

import pytest

import java_fixtures
from reforacle import javalex, metamorph
from reforacle.dataset import BugCorpus, BugInstance, SourceSet
from reforacle.metamorph import (
    AF,
    CO,
    IC,
    JI,
    LVD,
    OPERATORS,
    TLC,
    NoInsertionPoint,
    apply_operator,
    fresh_identifier,
    index_structure,
    remove_injected_lines,
    transform_corpus,
)
from reforacle.rng import CounterRng, derive_key


def operator_applicable(index: metamorph.StructuralIndex, op: str) -> bool:
    """The operator has a place to act in the indexed sources."""
    return bool(metamorph._TABLE[op].candidates(index))


def source_set(**files) -> SourceSet:
    return SourceSet(files=tuple(sorted(files.items())))


SMALL = source_set(**{
    "A.java": """class A {
  int m() {
    return 1;
  }
}
"""
})

# a Java 15+ text block whose first line ends in a line continuation
CONTINUED_TEXT_BLOCK = source_set(**{
    "A.java": """class A {
  String s = \"""
    one \\
    two
    \""";
  int x = 1;
  void m() {
    int y = 2;
  }
}
"""
})

NO_METHODS = source_set(**{
    "B.java": """class B {
  int x = 1;
}
"""
})


class TestScanner:
    def test_smallest_class_spans(self):
        scan = javalex.scan_file("class A { int m() { return 1; } }\n")
        types = [c for c in scan.contexts if c.kind == javalex.TYPE_BODY]
        methods = [c for c in scan.contexts if c.kind == javalex.METHOD_BODY]
        assert len(types) == 1 and types[0].name == "A"
        assert len(methods) == 1 and methods[0].name == "m"

    def test_three_top_level_classes(self):
        src = source_set(**java_fixtures.PUSH_DOWN_ORIGINAL)
        index = index_structure(src)
        spans = [
            ctx
            for fs in index.files.values()
            for ctx in fs.scan.contexts
            if ctx.kind == javalex.TYPE_BODY and ctx.top_level
        ]
        assert len(spans) == 3
        assert {ctx.name for ctx in spans} == {"A", "B", "C"}

    def test_brace_inside_string_ignored(self):
        scan = javalex.scan_file('class A { String s = "{"; }\n')
        types = [c for c in scan.contexts if c.kind == javalex.TYPE_BODY]
        assert len(types) == 1
        assert types[0].close_line == 0

    def test_unbalanced_braces(self):
        with pytest.raises(javalex.UnbalancedBraces):
            javalex.scan_file("class A {\n")
        with pytest.raises(javalex.UnbalancedBraces):
            javalex.scan_file("}\n")

    def test_unterminated_literal(self):
        with pytest.raises(javalex.UnterminatedLiteral):
            javalex.scan_file('class A { String s = "oops\n}\n')

    def test_comments_and_literals_hide_braces_quotes_and_names(self):
        text = ('/* a { "\n * } */ public class A { // } "\n'
                "  char c = '{'; String s = \"\\\"}\";\n"
                '  String t = """\n    } \\""" {\n    """;\n'
                "  int m(int x) { return x; } } // end")
        scan = javalex.scan_file(text)
        assert scan.line_end_in_code == [False, True, True, False, False, True, True]
        assert [(c.kind, c.name, c.open_line, c.close_line) for c in scan.contexts] == [
            (javalex.TYPE_BODY, "A", 1, 6), (javalex.METHOD_BODY, "m", 6, 6)]
        assert scan.identifiers == {"A", "String", "c", "char", "class", "int", "m",
                                    "public", "return", "s", "t", "x"}
        assert javalex.top_level_public_class(text) == "A"

    def test_scan_errors_name_the_line(self):
        for text, error, message in [
            ("class A { /* open\n", javalex.UnterminatedLiteral,
             "<source>: block comment still open at end of file"),
            ("class A { char c = '\n'; }", javalex.UnterminatedLiteral,
             "<source>:1: char literal not closed"),
            ("class A {\n int x; }\n}", javalex.UnbalancedBraces, "<source>:3: unmatched '}'"),
            ('class A { String s = "a\\\nb"; }', javalex.UnterminatedLiteral,
             "<source>:1: string literal not closed"),
        ]:
            with pytest.raises(error) as raised:
                javalex.scan_file(text)
            assert str(raised.value) == message
            assert javalex.top_level_public_class(text) is None

    def test_text_block_lines_not_safe(self):
        fixture = java_fixtures.PRESERVING_FIXTURES[-1]
        content = fixture.original["T.java"]
        scan = javalex.scan_file(content)
        inside = [i for i, ok in enumerate(scan.line_end_in_code) if not ok]
        assert inside  # the text block spans at least one line boundary

    def test_a_text_block_line_continuation_still_ends_its_line(self):
        scan = javalex.scan_file(CONTINUED_TEXT_BLOCK.content("A.java"))
        assert scan.line_end_in_code == [True, False, False, False, True, True, True, True, True,
                                         True]
        assert [(c.kind, c.name, c.open_line, c.close_line) for c in scan.contexts] == [
            (javalex.TYPE_BODY, "A", 0, 9), (javalex.METHOD_BODY, "m", 6, 8)]

    @pytest.mark.parametrize("text, line, name", [
        ("package a.b;\npublic class T { }\n", 0, "a.b"),
        ("// header\npackage a.b ; // trailing\npublic class T { }\n", 1, "a.b"),
        ("/*\npackage x.y;\n*/\npublic class T { }\n", None, ""),
        ("/*\npackage x.y;\n*/\npackage a.b;\npublic class T { }\n", 3, "a.b"),
        ('class S {\n String s = """\npackage x.y;\n""";\n}\n', None, ""),
        ("public class T { }\n", None, ""),
    ], ids=["first-line", "after-a-line-comment", "in-a-block-comment", "after-a-block-comment",
            "in-a-text-block", "none"])
    def test_a_package_line_starts_in_code(self, text, line, name):
        scan = javalex.scan_file(text)
        assert (scan.package_line, scan.package_name) == (line, name)

    def test_a_qualified_public_class_reads_the_package_line(self):
        assert javalex.qualified_public_class("package a.b;\npublic class T { }\n") == (
            "T", "a.b.T")
        commented = "/*\npackage a.b;\n*/\npublic class T { }\n"
        assert javalex.qualified_public_class(commented) == ("T", "T")
        assert javalex.qualified_public_class("public class A { }\npublic class B { }\n") is None

    def test_public_class_count(self):
        assert javalex.scan_file(java_fixtures.BEHAVIOR_TEST).public_class_names() == [
            "RefactoringBehaviorTest"]
        two = "public class A { }\npublic class B { }\n"
        assert javalex.scan_file(two).public_class_names() == ["A", "B"]


class TestInsertionPoints:
    def test_one_line_body_offers_no_member_point(self):
        index = index_structure(source_set(**{"A.java": "class A { int x = 1; }\n"}))
        assert not operator_applicable(index, AF)
        assert operator_applicable(index, CO)
        assert operator_applicable(index, TLC)

    def test_constructor_bodies_excluded_from_lvd(self):
        src = source_set(**{
            "A.java": """class A {
  A() {
    super();
  }
}
"""
        })
        index = index_structure(src)
        assert not operator_applicable(index, LVD)

    def test_enum_bodies_excluded_from_members(self):
        src = source_set(**{
            "E.java": """enum E {
  ONE, TWO
}
"""
        })
        index = index_structure(src)
        assert not operator_applicable(index, AF)
        assert not operator_applicable(index, IC)


class TestOperators:
    def test_af_inserts_field_before_method(self):
        variant = apply_operator(SMALL, AF, seed=7)
        content = variant.transformed_original.content("A.java")
        element = variant.manifest[0]
        assert element.kind == "field"
        assert element.line == 2  # right after `class A {`
        assert f" {element.name} = " in content

    def test_lvd_inserts_dead_local_first(self):
        variant = apply_operator(SMALL, LVD, seed=11)
        content = variant.transformed_original.content("A.java")
        lines = content.split("\n")
        element = variant.manifest[0]
        assert element.kind == "local"
        assert lines[2].strip().endswith(";")
        assert element.name in lines[2]
        assert lines[3].strip() == "return 1;"

    def test_lvd_without_methods_fails(self):
        with pytest.raises(NoInsertionPoint):
            apply_operator(NO_METHODS, LVD, seed=3)

    def test_ji_skips_types_already_present(self):
        src = source_set(**{
            "N.java": """import java.util.ArrayList;

class N {
  ArrayList<String> xs = new ArrayList<String>();
}
"""
        })
        variant = apply_operator(src, JI, seed=5)
        assert variant.manifest[0].name != "ArrayList"
        content = variant.transformed_original.content("N.java")
        assert content.count("import java.util.ArrayList;") == 1

    def test_ji_inapplicable_when_pool_exhausted(self):
        # every pool simple name occurs as an identifier in the file
        fields = "\n".join(
            f"  int {fq.rsplit('.', 1)[1]} = {i};"
            for i, fq in enumerate(metamorph.IMPORT_POOL)
        )
        src = source_set(**{"P.java": f"class P {{\n{fields}\n}}\n"})
        index = index_structure(src)
        assert not operator_applicable(index, JI)
        with pytest.raises(NoInsertionPoint):
            apply_operator(src, JI, seed=1)

    def test_co_always_applies(self):
        for fixture in java_fixtures.FIXTURES:
            src = source_set(**fixture.original)
            index = index_structure(src)
            assert operator_applicable(index, CO), fixture.id

    @pytest.mark.parametrize("op", OPERATORS)
    def test_no_operator_writes_inside_a_continued_text_block(self, op):
        original = CONTINUED_TEXT_BLOCK.content("A.java")
        block = original[original.index('"""'):original.rindex('"""') + 3]
        for seed in range(40):
            try:
                variant = apply_operator(CONTINUED_TEXT_BLOCK, op, seed=seed)
            except NoInsertionPoint:
                continue
            assert block in variant.transformed_original.content("A.java"), (op, seed)

    def test_tlc_appends_class(self):
        variant = apply_operator(SMALL, TLC, seed=13)
        content = variant.transformed_original.content("A.java")
        element = variant.manifest[0]
        assert element.kind == "top_level_class"
        assert f"class {element.name} {{" in content
        assert content.index(f"class {element.name}") > content.index("class A")

    def test_ic_nests_inside_type(self):
        variant = apply_operator(SMALL, IC, seed=17)
        scan = javalex.scan_file(variant.transformed_original.content("A.java"))
        names = {ctx.name: ctx for ctx in scan.contexts if ctx.kind == javalex.TYPE_BODY}
        inner = variant.manifest[0].name
        assert inner in names
        assert not names[inner].top_level


class TestVariantProperties:
    @pytest.mark.parametrize("fixture", java_fixtures.FIXTURES, ids=lambda f: f.id)
    def test_conservation_and_freshness(self, fixture):
        src = source_set(**fixture.original)
        index = index_structure(src)
        base_identifiers = set(index.identifiers)
        for op in OPERATORS:
            if not operator_applicable(index_structure(src), op):
                continue
            for seed in range(5):
                variant = apply_operator(src, op, seed)
                assert variant.manifest
                for path, content in variant.transformed_original.files:
                    elements = [e for e in variant.manifest if e.file == path]
                    restored = remove_injected_lines(content, elements)
                    assert restored == src.content(path), (fixture.id, op, seed, path)
                for element in variant.manifest:
                    if element.name:
                        assert element.name not in base_identifiers

    def test_variant_still_scans(self):
        # the transformed program must stay lexically well-formed
        for fixture in java_fixtures.FIXTURES:
            src = source_set(**fixture.original)
            for op in OPERATORS:
                if not operator_applicable(index_structure(src), op):
                    continue
                variant = apply_operator(src, op, seed=23)
                for path, content in variant.transformed_original.files:
                    javalex.scan_file(content, path)

    def test_all_fixture_sources_scan_clean(self):
        # both versions of every fixture must be lexically well-formed
        for fixture in java_fixtures.FIXTURES + java_fixtures.synthetic_benchmark():
            for name, content in {**fixture.original, **fixture.resulting}.items():
                javalex.scan_file(content, name)
            if fixture.test is not None:
                assert len(javalex.scan_file(fixture.test).public_class_names()) == 1

    def test_determinism(self):
        for op in OPERATORS:
            if not operator_applicable(index_structure(SMALL), op):
                continue
            a = apply_operator(SMALL, op, seed=99)
            b = apply_operator(SMALL, op, seed=99)
            assert a.transformed_original == b.transformed_original
            assert a.manifest == b.manifest

    def test_different_seeds_vary(self):
        texts = {
            apply_operator(SMALL, AF, seed=s).transformed_original.content("A.java")
            for s in range(12)
        }
        assert len(texts) > 1


class TestFreshIdentifier:
    def test_avoids_existing(self):
        src = source_set(**{"A.java": "class A { int aux1 = 1; }\n"})
        index = index_structure(src)
        rng = CounterRng(derive_key(1))
        for _ in range(50):
            assert fresh_identifier(index, "aux", rng) != "aux1"

    def test_thousand_draws_distinct(self):
        index = index_structure(SMALL)
        rng = CounterRng(derive_key(2))
        names = [fresh_identifier(index, "aux", rng) for _ in range(1000)]
        assert len(set(names)) == 1000


def corpus_from_fixtures(fixtures) -> BugCorpus:
    instances = []
    for f in fixtures:
        instances.append(
            BugInstance(
                id=f.id,
                tool=f.tool,
                refactoring_type=f.refactoring,
                label=f.label,
                original=source_set(**f.original),
                resulting=source_set(**f.resulting),
                exposing_test=f.test,
            )
        )
    return BugCorpus(instances=tuple(instances))


class TestTransformCorpus:
    def test_one_variant_per_instance(self):
        corpus = corpus_from_fixtures(java_fixtures.FIXTURES)
        variants = transform_corpus(corpus, master_seed=2024)
        assert len(variants) == corpus.total
        assert {v.base_instance_id for v in variants} == {
            i.id for i in corpus.instances
        }

    def test_same_seed_identical_byte_for_byte(self):
        corpus = corpus_from_fixtures(java_fixtures.FIXTURES)
        a = transform_corpus(corpus, master_seed=5)
        b = transform_corpus(corpus, master_seed=5)
        assert [v.transformed_original for v in a] == [v.transformed_original for v in b]
        assert [v.manifest for v in a] == [v.manifest for v in b]

    def test_operator_distribution_roughly_balanced(self):
        fixtures = java_fixtures.synthetic_benchmark()
        corpus = corpus_from_fixtures(fixtures)
        variants = transform_corpus(corpus, master_seed=77)
        assert len(variants) == 226
        counts = metamorph.operator_counts(variants)
        # uniform draw over six applicable operators: each expects ~38
        for op in OPERATORS:
            assert counts[op] >= 12, counts

    def test_scans_each_source_file_once(self, monkeypatch):
        corpus = corpus_from_fixtures(java_fixtures.FIXTURES)
        scanned = []
        real_scan = javalex.scan_file

        def counting_scan(text, path="<source>"):
            scanned.append(path)
            return real_scan(text, path)

        monkeypatch.setattr(javalex, "scan_file", counting_scan)
        transform_corpus(corpus, master_seed=4242)
        n_files = sum(len(inst.original.files) for inst in corpus.instances)
        assert len(scanned) == n_files

    def test_single_instance_corpus(self):
        corpus = corpus_from_fixtures(java_fixtures.FIXTURES[:1])
        variants = transform_corpus(corpus, master_seed=1)
        assert len(variants) == 1

    def test_conservation_on_benchmark_sized_corpus(self):
        fixtures = java_fixtures.synthetic_benchmark()
        corpus = corpus_from_fixtures(fixtures)
        variants = transform_corpus(corpus, master_seed=123)
        by_id = {f.id: f for f in fixtures}
        for variant in variants:
            base = source_set(**by_id[variant.base_instance_id].original)
            for path, content in variant.transformed_original.files:
                elements = [e for e in variant.manifest if e.file == path]
                assert metamorph.remove_injected_lines(content, elements) == base.content(path)

    def test_persist_and_reload(self, tmp_path):
        corpus = corpus_from_fixtures(java_fixtures.FIXTURES[:4])
        variants = transform_corpus(corpus, master_seed=31)
        base = metamorph.persist_variants(variants, corpus, tmp_path, 31)
        from reforacle.dataset import load_corpus

        reloaded = load_corpus(base)
        assert reloaded.total == 4
        manifest = (base / "instances" / variants[0].base_instance_id / "manifest").read_text()
        assert variants[0].operator in manifest


# Sources beyond the fixtures whose operators are inapplicable for each
# documented reason: one-line bodies, enum bodies, constructor-only
# methods and an exhausted import pool.
EDGE_SOURCES = {
    "edge-small": SMALL,
    "edge-no-methods": NO_METHODS,
    "edge-one-line": source_set(**{"A.java": "class A { int x = 1; }\n"}),
    "edge-enum": source_set(**{"E.java": "enum E {\n  ONE, TWO\n}\n"}),
    "edge-constructor": source_set(**{"A.java": "class A {\n  A() {\n    super();\n  }\n}\n"}),
    "edge-pool": source_set(**{
        "P.java": "class P {\n"
        + "".join(
            f"  int {fq.rsplit('.', 1)[1]} = {i};\n"
            for i, fq in enumerate(metamorph.IMPORT_POOL)
        )
        + "}\n"
    }),
}


NO_BODY = "no class or interface body spans multiple lines"
NO_METHOD = "no method body spans multiple lines"


def _variant_digest(variants) -> str:
    h = hashlib.sha256()
    for v in variants:
        manifest = [[e.kind, e.name, e.file, e.line, e.lines] for e in v.manifest]
        row = [v.base_instance_id, v.operator, v.seed, v.transformed_original.files, manifest]
        h.update(json.dumps(row).encode())
    return h.hexdigest()


class TestGoldenVariants:
    """Variant bytes pinned by digest: prompt hashes, and through them every
    stored outcome, depend on the exact text, so a changed draw order or
    layout must fail here rather than pass as run-to-run deterministic."""

    CORPUS = {
        4242: "c5bdcaa8635b21e412a36cbffa6f998a5450fe625c50f2433ed7d91ca0baeae2",
        1: "55b3cbcefad021aaa4ae046a70dd68b7c3c976a72804dc3be0917f8ccd583e33",
        77: "64c3b6f8a67f5c57db5736de877f6215c50f940d08bec68ef5bb0d6f187b7d64",
    }
    PER_OPERATOR = {
        AF: "6b3de0e8751a253f9c102818cc849a63771c8d30b9d9e0d5e643a485a8f757ca",
        CO: "f577b42f3aa40dbc923951892ef59d51800669b44e75c088215a4b30d80b45ed",
        IC: "274dca1ebdfc72978c7273b9729b6ca7f963fe332ed967d61632ee32762c704d",
        JI: "d90f10eb9bd9e73af21084498a5a936fa557eb420364202a3d686dddc7a36561",
        LVD: "8b87d44fe1b0a66d53638a46c985ed1d9ab7f0f58c230737e4d7d0383b86898a",
        TLC: "6e615caa8a0c1ab08a183b499c852879d95865fcf29e0ed7d61410c4aef136ed",
    }
    INAPPLICABLE = {
        **{
            (name, LVD): f"LVD: {NO_METHOD}"
            for name in (
                "bc-add-overload", "bc-pushdown-super", "bc-rename-dispatch",
                "ce-field-type", "ce-interface-rename", "ce-pushdown-call",
                "ce-removed-method", "ce-rename-broken", "pr-format", "pr-identity",
                "pr-intro-const", "edge-constructor", "edge-enum", "edge-no-methods",
                "edge-one-line", "edge-pool",
            )
        },
        ("edge-enum", AF): f"AF: {NO_BODY}",
        ("edge-enum", IC): f"IC: {NO_BODY}",
        ("edge-one-line", AF): f"AF: {NO_BODY}",
        ("edge-one-line", IC): f"IC: {NO_BODY}",
        ("edge-pool", JI): "JI: every pool type already occurs",
    }

    @pytest.mark.parametrize("seed", sorted(CORPUS))
    def test_transform_corpus(self, seed):
        corpus = corpus_from_fixtures(java_fixtures.FIXTURES)
        assert _variant_digest(transform_corpus(corpus, seed)) == self.CORPUS[seed]

    def _sources(self):
        fixtures = {f.id: source_set(**f.original) for f in java_fixtures.FIXTURES}
        return {**fixtures, **EDGE_SOURCES}

    @pytest.mark.parametrize("op", OPERATORS)
    def test_apply_operator(self, op):
        variants = [
            apply_operator(src, op, seed, instance_id=name)
            for name, src in self._sources().items()
            if operator_applicable(index_structure(src), op)
            for seed in range(5)
        ]
        assert _variant_digest(variants) == self.PER_OPERATOR[op]

    def test_inapplicable_pairs_and_messages(self):
        messages = {}
        for name, src in self._sources().items():
            for op in OPERATORS:
                if not operator_applicable(index_structure(src), op):
                    with pytest.raises(NoInsertionPoint) as err:
                        apply_operator(src, op, seed=0)
                    messages[name, op] = str(err.value)
        assert messages == self.INAPPLICABLE
