"""README's examples are checked against the ropcalc under test, so they cannot drift.

In the "Library quick start" block, each line of code followed by ``# value`` is an
expression whose repr must be that value (a trailing ``...`` asks for a prefix);
the other lines run as they stand.  Each ``ropcalc`` line of a shell block that is
followed by ``# ...`` lines is run through the CLI's ``main``, and those lines,
without their ``# ``, must be its stdout.
"""

import os
import re
import shlex

from ropcalc.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme() -> str:
    with open(README, encoding="utf-8") as f:
        return f.read()


def _blocks(language, text):
    """The bodies of the ``language`` code blocks in ``text``."""
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


def test_quick_start_values_are_the_reprs_of_their_lines():
    section = _readme().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    (block,) = _blocks("python", section)
    scope, checked = {}, 0
    for line in block.splitlines():
        code, _, value = (part.strip() for part in line.partition("#"))
        if not code:
            continue
        if not value:
            exec(code, scope)
            continue
        shown = repr(eval(code, scope))
        if value.endswith("..."):
            assert shown.startswith(value[:-3]), (code, shown, value)
        else:
            assert shown == value, (code, shown, value)
        checked += 1
    assert checked == 6


def test_cli_examples_print_what_readme_shows(capsys):
    checked = 0
    for block in _blocks("sh", _readme()):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            shown = []
            for later in lines[i + 1:]:
                if not later.startswith("# "):
                    break
                shown.append(later[2:])
            if not line.startswith("ropcalc ") or not shown:
                continue
            assert main(shlex.split(line)[1:]) == 0, line
            assert capsys.readouterr().out == "".join(s + "\n" for s in shown), line
            checked += 1
    assert checked == 1
