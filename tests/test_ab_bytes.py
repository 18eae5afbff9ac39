"""Smoke tests of ``tools/ab_bytes.py``, the command-line byte A/B."""

import importlib.util
import json
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


def test_record_stands_in_for_a_tree(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(ab_bytes, "commands", lambda d, e, *_: [["bott-thurston", d, e]])
    path = tmp_path / "record.json"
    assert ab_bytes.main(["--record", str(path), str(ROOT)]) == 0
    doc = json.loads(path.read_text())
    assert set(doc) == {"python", "numpy", "blas", "commands"}
    assert doc["blas"] == ab_bytes.versions()["blas"] and doc["blas"].strip()
    (entry,) = doc["commands"]
    assert entry["argv"] == ["bott-thurston", "d.json", "e.json"] and entry["exit"] == 0
    assert len(entry["stdout_sha256"]) == 64
    capsys.readouterr()
    assert ab_bytes.main([str(path), str(ROOT)]) == 0
    assert "0 of 1 commands moved" in capsys.readouterr().err
    # A digest or an exit code that differs is a moved command.
    path.write_text(json.dumps({**doc, "commands": [{**entry, "exit": 3, "stdout_sha256": "0" * 64}]}))
    assert ab_bytes.main([str(path), str(ROOT)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "$ virasoro bott-thurston d.json e.json",
        "  exit code 3 -> 0",
        f"  stdout sha256 {'0' * 16} -> {entry['stdout_sha256'][:16]}",
    ]
    # A record made under other versions, or under another BLAS or one not
    # named, is refused.
    for made in ({**doc, "numpy": "0.0.0"}, {**doc, "blas": "reference 0.0"}, {k: v for k, v in doc.items() if k != "blas"}):
        path.write_text(json.dumps(made))
        assert ab_bytes.main([str(path), str(ROOT)]) == 2
        assert "record was made under" in capsys.readouterr().err
