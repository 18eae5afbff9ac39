"""Smoke tests of ``tools/ab_bytes.py``, the command-line byte A/B."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_bytes", ROOT / "tools" / "ab_bytes.py")
ab_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bytes)


def test_same_tree_moves_nothing(monkeypatch, capsys):
    monkeypatch.setattr(ab_bytes, "commands", lambda d, e, *_: [["bott-thurston", d, e]])
    assert ab_bytes.main([str(ROOT), str(ROOT)]) == 0
    out, err = capsys.readouterr()
    assert out == "" and "0 of 1 commands moved" in err


def test_moved_exit_code_and_lines_are_reported(tmp_path):
    cli = tmp_path / "src" / "virasoro"
    cli.mkdir(parents=True)
    (cli / "__init__.py").write_text("")
    (cli / "cli.py").write_text("def main(argv):\n    print('{')\n    print(argv)\n    return 3\n")
    lines = ab_bytes.moved(str(ROOT), str(tmp_path), ["--seed", "0", "verify", "symplectic"])
    assert lines[0] == "exit code 0 -> 3"
    assert lines[1].startswith("line 2: ") and lines[1].endswith("-> \"['--seed', '0', 'verify', 'symplectic']\"")
