"""Run the README's examples: the `## Library` snippet and the command
transcripts must print what the README says they print."""

import re
import shutil
from pathlib import Path

from cisym.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```[a-z]*\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def test_library_snippet_prints_its_comments(tmp_path, monkeypatch, capsys):
    library = README[README.index("\n## Library\n"):]
    snippet = re.search(r"^```python\n(.*?)^```$", library,
                        re.MULTILINE | re.DOTALL).group(1)
    # Each print writes one line; a `# value` comment gives its text.
    wanted = [re.search(r"#\s*([^:]+?)\s*(?::|$)", line)
              for line in snippet.splitlines() if line.startswith("print(")]
    shutil.copy(ROOT / "demos" / "configs" / "projective_space.json",
                tmp_path / "config.json")
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(wanted)
    checked = [(out, want.group(1))
               for out, want in zip(printed, wanted) if want]
    assert [want for _, want in checked] == ["-56", "False", "True", "14"]
    for out, want in checked:
        assert out == want


def test_command_transcripts_are_what_main_prints(capsys):
    # A transcript is a block whose first line is a whole `$ cisym` command
    # and whose other lines are its output.  A line that ends in " ..."
    # stands for any line that starts with the text before it.
    commands = []
    for block in BLOCKS:
        command, *expected = block.splitlines()
        if not command.startswith("$ cisym ") or command.endswith("\\") \
                or not expected:
            continue
        commands.append(command)
        assert main(command.split()[2:]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == len(expected), command
        for out, want in zip(printed, expected):
            if want.endswith(" ..."):
                assert out.startswith(want[:-len(" ...")]), command
            else:
                assert out == want, command
    assert commands == ["$ cisym invariants 2 4", "$ cisym classify 3 3"]
