import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_round_trip_runs(capsys):
    # the documented round trip runs as written and prints its three rates
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    rates = [float(v) for v in capsys.readouterr().out.split()]
    assert len(rates) == 3 and all(r > 0 for r in rates)
