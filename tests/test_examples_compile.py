"""Every example and script must at least compile and import cleanly.

(Full executions are exercised manually; these checks
catch syntax errors and broken imports cheaply.)"""

import os
import py_compile

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def collect(directory):
    path = os.path.join(REPO_ROOT, directory)
    if not os.path.isdir(path):
        return []
    return sorted(
        os.path.join(path, name)
        for name in os.listdir(path)
        if name.endswith(".py")
    )


EXAMPLES = collect("examples")
SCRIPTS = collect("scripts")


class TestCompile:
    @pytest.mark.parametrize("path", EXAMPLES + SCRIPTS, ids=os.path.basename)
    def test_compiles(self, path):
        py_compile.compile(path, doraise=True)

    def test_expected_examples_present(self):
        names = {os.path.basename(p) for p in EXAMPLES}
        assert {
            "quickstart.py",
            "deadlock_demo.py",
            "pcube_walkthrough.py",
            "custom_turn_model.py",
        } <= names

    def test_examples_have_main_guards(self):
        for path in EXAMPLES:
            with open(path) as fh:
                source = fh.read()
            assert '__name__ == "__main__"' in source, path
            assert '"""' in source.split("\n", 3)[1] or source.startswith(
                "#!"
            ), f"{path} should start with a docstring"
