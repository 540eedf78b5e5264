"""Shared fixtures for the reprolint tests."""

from __future__ import annotations

import pytest

from repro.lint.framework import run_lint


@pytest.fixture
def lint():
    """Run selected rules over fixture modules, returning the LintResult."""

    def _lint(modules, rules):
        if not isinstance(modules, (list, tuple)):
            modules = [modules]
        return run_lint([], rule_names=list(rules), modules=list(modules))

    return _lint
