from types import SimpleNamespace

import pytest

import java_fixtures
from reforacle import prompting
from reforacle.dataset import SourceSet
from reforacle.diffs import unified_source_diff
from reforacle.prompting import (
    DIFF_ONLY,
    FULL_SOURCE,
    BadTemplate,
    EmptyDiff,
    EmptyProgram,
    NoChangeLines,
    builtin_template,
    load_template,
    render_diff_prompt,
    render_full_prompt,
)

FIG1_CODE1 = "".join(java_fixtures.PUSH_DOWN_ORIGINAL.values())
FIG1_CODE2 = "".join(java_fixtures.PUSH_DOWN_RESULTING.values())


class TestTemplates:
    def test_full_template_invariants(self):
        tpl = builtin_template(FULL_SOURCE)
        assert tpl.body.count("{code1}") == 1
        assert tpl.body.count("{code2}") == 1
        assert "Return ONLY valid JSON" in tpl.body
        assert "<CODE1" in tpl.body and "CODE1>" in tpl.body
        assert "<CODE2" in tpl.body and "CODE2>" in tpl.body
        assert '"YES | NO - COMPILATION ERROR | NO - BEHAVIOR CHANGE"' in tpl.body

    def test_diff_template_invariants(self):
        tpl = builtin_template(DIFF_ONLY)
        assert tpl.body.count("{diff}") == 1
        assert "Return ONLY valid JSON" in tpl.body
        assert "<DIFF" in tpl.body and "DIFF>" in tpl.body
        assert '"YES | NO - COMPILATION ERROR | NO - BEHAVIOR CHANGE | UNKNOWN"' in tpl.body
        assert "The diff may include one or more files." in tpl.body

    def test_override_template(self, tmp_path):
        path = tmp_path / "tpl.txt"
        path.write_text("Return ONLY valid JSON\n{code1}\n{code2}\n")
        tpl = load_template(path, FULL_SOURCE)
        rendered = render_full_prompt("a", "b", template=tpl)
        assert rendered.template_version == "tpl.txt"
        assert "\na\nb\n" in rendered.text

    def test_bad_override_rejected(self, tmp_path):
        path = tmp_path / "tpl.txt"
        path.write_text("{code1} only, no second placeholder")
        with pytest.raises(BadTemplate):
            load_template(path, FULL_SOURCE)

    def test_renders_read_each_builtin_template_once(self, monkeypatch):
        files = prompting.resources.files
        opened = []

        def counting_files(package):
            opened.append(package)
            return files(package)

        monkeypatch.setattr(prompting, "resources", SimpleNamespace(files=counting_files))
        builtin_template.cache_clear()  # earlier tests in this process filled it
        for i in range(5):
            render_full_prompt(f"class A{i} {{}}", "class B {}")
            render_diff_prompt(f"--- a\n+++ b\n-x{i}\n+y\n")
        assert opened == ["reforacle", "reforacle"]  # one read per mode


class TestRenderFull:
    def test_fig1_pair_between_fences(self):
        rendered = render_full_prompt(FIG1_CODE1, FIG1_CODE2, instance_id="fig1")
        text = rendered.text
        assert text.index("<CODE1") < text.index(FIG1_CODE1) < text.index("CODE1>")
        assert text.index("<CODE2") < text.index(FIG1_CODE2) < text.index("CODE2>")
        assert rendered.instance_id == "fig1"

    def test_identical_programs_render(self):
        rendered = render_full_prompt("class A {}", "class A {}")
        assert rendered.text.count("class A {}") == 2

    def test_empty_code2_rejected(self):
        with pytest.raises(EmptyProgram):
            render_full_prompt("class A {}", "")

    def test_round_trip_recovers_template(self):
        tpl = builtin_template(FULL_SOURCE)
        rendered = render_full_prompt(FIG1_CODE1, FIG1_CODE2, template=tpl)
        recovered = rendered.text.replace(FIG1_CODE1, "{code1}", 1).replace(
            FIG1_CODE2, "{code2}", 1
        )
        assert recovered == tpl.body

    def test_rendering_is_pure(self):
        a = render_full_prompt(FIG1_CODE1, FIG1_CODE2)
        b = render_full_prompt(FIG1_CODE1, FIG1_CODE2)
        assert a.text == b.text

    def test_payload_never_escaped(self):
        payload = 'class A { String s = "{code1} \\" weird"; }'
        rendered = render_full_prompt(payload, "class B {}")
        # the braces of the payload arrive verbatim
        assert 'String s = "{code1} \\" weird"' in rendered.text


class TestRenderDiff:
    def diff(self):
        original = SourceSet(files=tuple(java_fixtures.PUSH_DOWN_ORIGINAL.items()))
        resulting = SourceSet(files=tuple(java_fixtures.PUSH_DOWN_RESULTING.items()))
        return unified_source_diff(original, resulting)

    def test_single_hunk_diff_renders_with_unknown(self):
        rendered = render_diff_prompt(self.diff())
        assert '"YES | NO - COMPILATION ERROR | NO - BEHAVIOR CHANGE | UNKNOWN"' in rendered.text
        assert rendered.kind == DIFF_ONLY

    def test_whitespace_only_diff_rejected(self):
        with pytest.raises(NoChangeLines):
            render_diff_prompt("--- a/A.java\n+++ b/A.java\n")

    def test_empty_diff_rejected(self):
        with pytest.raises(EmptyDiff):
            render_diff_prompt("   \n")

    def test_multi_file_note_retained(self):
        rendered = render_diff_prompt(self.diff())
        assert "may include one or more files" in rendered.text

    def test_round_trip(self):
        tpl = builtin_template(DIFF_ONLY)
        diff = self.diff()
        rendered = render_diff_prompt(diff, template=tpl)
        assert rendered.text.replace(diff, "{diff}", 1) == tpl.body


class TestUnifiedDiff:
    def test_multi_file_diff_covers_changed_files(self):
        original = SourceSet(files=tuple(java_fixtures.PUSH_DOWN_ORIGINAL.items()))
        resulting = SourceSet(files=tuple(java_fixtures.PUSH_DOWN_RESULTING.items()))
        diff = unified_source_diff(original, resulting)
        assert "a/B.java" in diff and "b/B.java" in diff
        assert "a/C.java" in diff and "b/C.java" in diff
        assert "a/A.java" not in diff  # A.java is unchanged
        assert any(line.startswith("-") for line in diff.splitlines())

    def test_identical_sets_empty_diff(self):
        src = SourceSet(files=(("A.java", "class A {}\n"),))
        assert unified_source_diff(src, src) == ""
