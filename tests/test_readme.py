"""The README's examples against what the program prints.

The ``q2scaling`` example block must be the recorded stdout of that command,
``tests/golden/q2_ref.txt``, which ``test_golden_output.py`` holds to the
program. The "Library use" snippet is run, and each ``print`` line with a
trailing comment must print that comment's text.
"""

import contextlib
import io
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"
GOLDEN = Path(__file__).parent / "golden"


def _block_after(marker: str) -> list[str]:
    """The lines of the first fenced block at or after the line ``marker``, without its fences."""
    lines = README.read_text().splitlines()
    start = lines.index(marker)
    opening = next(i for i in range(start, len(lines)) if lines[i].startswith("```"))
    closing = lines.index("```", opening + 1)
    return lines[opening + 1 : closing]


def test_q2scaling_example_is_the_recorded_output():
    block = _block_after("Example:")
    assert block[0] == '$ qscaling q2scaling --inline "2; 1 2; -1 5"'
    assert "\n".join(block[1:]) + "\n" == (GOLDEN / "q2_ref.txt").read_text()


def test_library_snippet_prints_the_values_in_its_comments():
    block = _block_after("## Library use")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec("\n".join(block), {})
    printed = out.getvalue().splitlines()
    prints = [line for line in block if line.startswith("print(")]
    assert len(printed) == len(prints)
    commented = [(line.partition("#")[2].strip(), shown) for line, shown in zip(prints, printed) if "#" in line]
    assert commented
    for expected, shown in commented:
        assert shown == expected
