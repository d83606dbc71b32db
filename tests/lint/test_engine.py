"""Engine behavior: suppressions, module inference, selection, ordering."""

from pathlib import Path

import pytest

from repro.lint import LintEngine, LintError, infer_module, lint_paths

FIXTURES = Path(__file__).parent / "fixtures"

HASH_SNIPPET = "def f(x):\n    return hash(x)\n"


def lint(source, module="fixture", select=None):
    return LintEngine(select=select).lint_source(
        source, path="snippet.py", module=module)


class TestSuppressions:
    def test_same_line(self):
        src = ("def f(x):\n"
               "    return hash(x)  # repro: allow-hash-builtin — why\n")
        (finding,) = lint(src)
        assert finding.suppressed

    def test_line_above(self):
        src = ("def f(x):\n"
               "    # repro: allow-hash-builtin — in-process only\n"
               "    return hash(x)\n")
        (finding,) = lint(src)
        assert finding.suppressed

    def test_code_spelling(self):
        src = "def f(x):\n    return hash(x)  # repro: allow-D001\n"
        (finding,) = lint(src)
        assert finding.suppressed

    def test_comma_separated_rules(self):
        src = ("DATA = {}\n"
               "def f():\n"
               "    # repro: allow-hash-builtin,unordered-iter — fixture\n"
               "    return [hash(k) for k, v in DATA.items()]\n")
        findings = lint(src)
        assert {f.code for f in findings} == {"D001", "D002"}
        assert all(f.suppressed for f in findings)

    def test_wrong_rule_does_not_suppress(self):
        src = ("def f(x):\n"
               "    return hash(x)  # repro: allow-wall-clock — wrong rule\n")
        (finding,) = lint(src)
        assert not finding.suppressed

    def test_two_lines_above_does_not_suppress(self):
        src = ("def f(x):\n"
               "    # repro: allow-hash-builtin — too far away\n"
               "    y = x\n"
               "    return hash(y)\n")
        findings = lint(src)
        assert [f.suppressed for f in findings] == [False]

    def test_comment_inside_string_is_not_a_suppression(self):
        src = ('NOTE = " # repro: allow-hash-builtin "\n'
               "def f(x):\n"
               "    return hash(x)\n")
        findings = lint(src)
        assert [f.suppressed for f in findings] == [False]


class TestModuleInference:
    def test_src_layout(self):
        assert infer_module(Path("src/repro/sim/queues.py")) \
            == "repro.sim.queues"

    def test_package_init(self):
        assert infer_module(Path("src/repro/lint/__init__.py")) \
            == "repro.lint"

    def test_outside_repro_falls_back_to_stem(self):
        assert infer_module(Path("scripts/helper.py")) == "helper"

    def test_override_directive(self):
        src = ("# repro: module=repro.sim.fake\n"
               "import time\n"
               "def f():\n"
               "    return time.time()\n")
        findings = LintEngine().lint_source(src, path="anywhere.py")
        assert [f.code for f in findings] == ["D004"]


class TestSelection:
    def test_select_by_code(self):
        findings = lint(HASH_SNIPPET, select=["D001"])
        assert [f.code for f in findings] == ["D001"]

    def test_select_excludes_other_rules(self):
        findings = lint(HASH_SNIPPET, select=["D002"])
        assert findings == []

    def test_select_by_slug(self):
        findings = lint(HASH_SNIPPET, select=["hash-builtin"])
        assert [f.code for f in findings] == ["D001"]

    def test_unknown_rule_raises(self):
        with pytest.raises(LintError, match="unknown rule"):
            LintEngine(select=["D999"])

    def test_select_family_letter(self):
        engine = LintEngine(select=["P"])
        assert sorted(r.code for r in engine.rules) == ["P001", "P002"]

    def test_select_family_mixed_with_code(self):
        engine = LintEngine(select=["D", "S001"])
        codes = sorted(r.code for r in engine.rules)
        assert "S001" in codes
        assert all(c.startswith(("D", "S")) for c in codes)
        assert "D001" in codes and "D006" in codes

    def test_family_is_case_insensitive(self):
        assert sorted(r.code for r in LintEngine(select=["p"]).rules) == \
            sorted(r.code for r in LintEngine(select=["P"]).rules)

    def test_unknown_family_names_families(self):
        with pytest.raises(LintError, match="unknown rule family"):
            LintEngine(select=["Q"])
        with pytest.raises(LintError, match="known families"):
            LintEngine(select=["Q"])


class TestPaths:
    def test_syntax_error_raises(self):
        with pytest.raises(LintError, match="cannot parse"):
            LintEngine().lint_source("def broken(:\n", path="bad.py")

    def test_missing_path_raises(self):
        with pytest.raises(LintError, match="no such file"):
            LintEngine().lint_paths([FIXTURES / "does_not_exist.py"])

    def test_directory_walk_is_deterministic(self):
        first, n1 = lint_paths([FIXTURES], root=FIXTURES.parent)
        second, n2 = lint_paths([FIXTURES], root=FIXTURES.parent)
        assert first == second
        assert n1 == n2 > 0

    def test_findings_sorted_by_location(self):
        findings, _ = lint_paths([FIXTURES], root=FIXTURES.parent)
        keys = [f.sort_key() for f in findings]
        assert keys == sorted(keys)

    def test_duplicate_inputs_scan_once(self):
        one, n1 = lint_paths([FIXTURES / "d001_positive.py"])
        both, n2 = lint_paths([FIXTURES / "d001_positive.py",
                               FIXTURES / "d001_positive.py"])
        assert n1 == n2 == 1
        assert len(one) == len(both)

    def test_exclude_prunes_subtree(self, tmp_path):
        (tmp_path / "clean.py").write_text("X = 1\n", encoding="utf-8")
        dirty = tmp_path / "dirty"
        dirty.mkdir()
        (dirty / "bad.py").write_text(HASH_SNIPPET, encoding="utf-8")
        findings, n = lint_paths([tmp_path], root=tmp_path)
        assert n == 2 and len(findings) == 1
        findings, n = lint_paths([tmp_path], root=tmp_path, exclude=[dirty])
        assert n == 1 and findings == []


class TestSuppressionTokenizeFallback:
    def test_unterminated_string_falls_back_to_regex(self):
        # tokenize raises TokenError on the unterminated triple-quote;
        # the regex fallback must still collect the allow- comment.
        from repro.lint.engine import _suppressions

        src = ('x = hash(y)  # repro: allow-D001 — note\n'
               's = """unterminated\n')
        assert _suppressions(src) == {1: {"d001"}}

    def test_fallback_handles_multiple_comments(self):
        from repro.lint.engine import _suppressions

        src = ('# repro: allow-hash-builtin,unordered-iter — both\n'
               'x = 1\n'
               'bad = """\n')
        assert _suppressions(src)[1] == {"hash-builtin", "unordered-iter"}


def test_finding_to_dict_roundtrip_fields():
    (finding,) = lint(HASH_SNIPPET)
    data = finding.to_dict()
    assert data["code"] == "D001"
    assert data["rule"] == "hash-builtin"
    assert data["line"] == 2
    assert data["snippet"] == "return hash(x)"
    assert data["suppressed"] is False
    assert data["baselined"] is False
