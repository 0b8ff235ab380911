"""``docs/tutorial.md`` runs as written.

The tutorial's ```` ```python ```` blocks build on each other, so they
run in order in one namespace, inside a temporary directory (nothing a
snippet writes lands in the checkout).
"""

import re
from pathlib import Path

TUTORIAL = Path(__file__).resolve().parent.parent / "docs" / "tutorial.md"


def _python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)


def test_tutorial_snippets_run_in_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    blocks = _python_blocks(TUTORIAL.read_text(encoding="utf-8"))
    assert len(blocks) >= 6
    namespace = {"__name__": "tutorial"}
    for index, block in enumerate(blocks):
        exec(compile(block, f"{TUTORIAL.name} block {index}", "exec"), namespace)
    out = capsys.readouterr().out
    # section 2 finds the sku typo; section 4 prints the repairs its
    # comment lists; section 6 fixes the UK city only
    assert "'sk-3OO3'" in out
    assert [str(edit) for edit in namespace["result"].edits] == [
        "t2[brand]: 'brewcreft' -> 'brewcraft'",
        "t6[sku]: 'sk-3OO3' -> 'sk-3003'",
        "t4[city]: 'Nantez' -> 'Nantes'",
    ]
    assert [str(edit) for edit in namespace["cfd_result"].edits] == [
        "t2[City]: 'Manchestr' -> 'Manchester'"
    ]
