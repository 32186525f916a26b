"""The output corpus: every file a fixed set of short command runs writes,
against the sha256 digests in output_corpus.json, so a change to any output
byte fails here. A change that moves an output by design re-records the
digests, from the repository root, and lists each changed file:

    PYTHONPATH=src python tests/test_corpus.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from fewatom.cli import main

CORPUS = Path(__file__).with_name("output_corpus.json")


def _runs(cfg: Path):
    """(out-dir name, the command lines run in it, in order)."""
    for seed in (3, 21):
        model = ["--preset", "fig2", "--config", str(cfg), "--seed", str(seed)]
        yield f"fig2_seed{seed}_simulate", [["simulate", *model]]
        yield f"fig2_seed{seed}_synth", [["synth", *model], ["detect"], ["fit"]]
        yield f"fig2_seed{seed}_pipeline", [["pipeline", *model]]
        yield f"fig2_seed{seed}_oracle", [["oracle", *model]]
    yield "shield", [["shield"]]
    yield "fig4a_pipeline", [["pipeline", "--preset", "fig4a", "--config", str(cfg)]]


def digests(root: Path) -> dict[str, str]:
    """'out-dir/file' -> sha256 of each file the runs leave under root."""
    cfg = root / "run.cfg"
    cfg.write_text("sim.duration_s = 2000\n")
    found = {}
    for name, commands in _runs(cfg):
        out = root / name
        for argv in commands:
            assert main([*argv, "--out-dir", str(out)]) == 0, argv
        found.update((f"{name}/{f.name}", hashlib.sha256(f.read_bytes()).hexdigest())
                     for f in sorted(out.iterdir()))
    return found


def test_outputs_match_the_corpus(tmp_path, capsys):
    want = json.loads(CORPUS.read_text())
    got = digests(tmp_path)
    capsys.readouterr()  # each command's one line of progress
    assert got == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = digests(Path(tmp))
    CORPUS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} digests in {CORPUS}", file=sys.stderr)
