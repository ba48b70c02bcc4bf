"""README.md examples, run as written, so that the documentation cannot drift.

Each ```sh block that starts with ``$ ocws`` runs through ``cli.main`` from
the repository root, and its output must equal the block's remaining
lines.  A ``...`` line stands for omitted lines.  An ``--out`` path is
redirected into a temporary directory.  Each ``print(...)  # value`` line
of a ```python block must print text that the comment starts with.
"""

import re
import shlex
import sys

from ocws.cli import main
from conftest import ROOT

_BLOCK = re.compile(r"```(\w*)\n(.*?)```", re.S)


def _blocks(language):
    text = (ROOT / "README.md").read_text()
    return [body for lang, body in _BLOCK.findall(text) if lang == language]


def _matches(expected, actual):
    if "..." not in expected:
        return actual == expected
    cut = expected.index("...")
    head, tail = expected[:cut], expected[cut + 1 :]
    return (
        len(actual) >= len(head) + len(tail)
        and actual[: len(head)] == head
        and actual[len(actual) - len(tail) :] == tail
    )


def test_readme_cli_examples(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    examples = [b for b in _blocks("sh") if b.startswith("$ ocws ")]
    assert len(examples) == 4
    for block in examples:
        command, *expected = block.splitlines()
        argv = shlex.split(command)[2:]
        if "--out" in argv:
            out = argv.index("--out") + 1
            name, argv[out] = argv[out], str(tmp_path / argv[out])
        capsys.readouterr()
        assert main(argv) == 0, command
        stdout = capsys.readouterr().out
        if "--out" in argv:
            stdout = stdout.replace(argv[out], name)
        assert _matches(expected, stdout.splitlines()), (command, stdout)


def test_readme_python_values(monkeypatch):
    monkeypatch.chdir(ROOT)
    blocks = _blocks("python")
    assert len(blocks) == 2
    checked = 0
    for block in blocks:
        lines = block.splitlines()
        printed = []

        def recording(*args):
            printed.append((sys._getframe(1).f_lineno, " ".join(map(str, args))))

        exec(compile(block, "README.md", "exec"), {"print": recording})
        for lineno, text in printed:
            _code, hash_, comment = lines[lineno - 1].partition("#")
            if hash_:
                assert (comment.strip() + " ").startswith(text + " "), (lines[lineno - 1], text)
                checked += 1
    assert checked == 4
