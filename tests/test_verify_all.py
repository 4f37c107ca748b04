"""Selector behavior of tools/verify_all.py (--list / --only).

Only the selection logic is unit-tested here; the hooks themselves are
the verification suite and run for real in CI.
"""
import pathlib
import sys

import pytest

TOOLS_DIR = pathlib.Path(__file__).resolve().parents[1] / "tools"
if str(TOOLS_DIR) not in sys.path:
    sys.path.insert(0, str(TOOLS_DIR))

import verify_all


class TestSelectHooks:
    def test_default_selects_every_hook_in_suite_order(self):
        selected = verify_all.select_hooks()
        assert selected == list(verify_all.HOOKS.items())

    def test_only_preserves_suite_order_not_selector_order(self):
        names = list(verify_all.HOOKS)
        # Ask for the last two hooks in reversed order; the suite order
        # must win so partial runs stay comparable to full runs.
        selected = verify_all.select_hooks([names[-1], names[0]])
        assert [name for name, _ in selected] == [names[0], names[-1]]

    def test_only_deduplicates_repeated_selectors(self):
        name = next(iter(verify_all.HOOKS))
        selected = verify_all.select_hooks([name, name])
        assert [n for n, _ in selected] == [name]

    def test_unknown_hook_raises_with_choices(self):
        with pytest.raises(ValueError, match="nope"):
            verify_all.select_hooks(["nope"])

    def test_selected_hooks_are_callables_from_the_registry(self):
        for name, hook in verify_all.select_hooks(["parallel"]):
            assert hook is verify_all.HOOKS[name]
            assert callable(hook)


class TestMainSelectors:
    def test_list_prints_every_hook_and_exits_zero(self, capsys):
        assert verify_all.main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in verify_all.HOOKS:
            assert name in out

    def test_unknown_only_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as stop:
            verify_all.main(["--only", "nope"])
        assert stop.value.code == 2
        assert "nope" in capsys.readouterr().err
