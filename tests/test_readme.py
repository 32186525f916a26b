import re
import shlex
from pathlib import Path

from fewatom.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_round_trip_runs(capsys):
    # the documented round trip runs as written and prints its three rates
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    rates = [float(v) for v in capsys.readouterr().out.split()]
    assert len(rates) == 3 and all(r > 0 for r in rates)


def test_readme_command_lines_run(tmp_path, monkeypatch):
    # the documented command lines run in order, in a directory that holds
    # the block's run.cfg, and each leaves the files its comment names
    blocks = [block for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
              if "fewatom " in block]
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    ran = 0
    for line in blocks[0].splitlines():
        command, _, comment = line.partition("#")
        words = shlex.split(command)
        if words[0] == "echo":
            text, redirect, name = words[1:]
            assert redirect == ">"
            Path(name).write_text(text + "\n")
            continue
        assert words[0] == "fewatom" and main(words[1:]) == 0, line
        out = Path(words[words.index("--out-dir") + 1])
        for name in re.findall(r"[\w.]+\.(?:csv|txt)", comment):
            assert (out / name).is_file(), (line, name)
        ran += 1
    assert ran == 6
