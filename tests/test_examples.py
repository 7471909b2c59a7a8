"""The example scripts run against the current API."""

import re
import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def test_access_scheme_timelines_renders_bank0(capsys):
    runpy.run_path(str(EXAMPLES / "access_scheme_timelines.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert "bank 0, first 4000 cycles" in out
    assert re.search(r"^SAG\d+/CD\d+ \|", out, re.MULTILINE)
    busy = re.search(
        r"^parallelism in this window: .*, (\d+) busy cycles total$",
        out, re.MULTILINE,
    )
    assert busy and int(busy.group(1)) > 0
