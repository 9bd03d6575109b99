"""The correctness gate: each command's expected exit code and verdict.

A command fails the gate when its exit code differs from the expected
one, when a required stdout line is missing, or, for `synthesize`, when
the certificate it prints on stdout has the wrong kind or an
`evidence.aut_order` other than |G|.  The benchmark's failed count is
the number of commands that fail here.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional


@dataclass
class Cmd:
    argv: list[str]                # arguments after `python -m mhaar`
    rc: int                        # expected exit code
    # regexes; each must match one whole stdout line
    lines: list[str] = field(default_factory=list)
    cert_kind: Optional[str] = None       # stdout is a certificate of this kind
    cert_aut_order: Optional[int] = None  # ... whose evidence.aut_order is this
    save_stdout: Optional[Path] = None    # keep stdout for a later command


def check(cmd: Cmd, rc: int, stdout: str) -> Optional[str]:
    """None when the outcome is the expected one, else the reason."""
    if rc != cmd.rc:
        return f"exit code {rc}, expected {cmd.rc}"
    present = [ln.strip() for ln in stdout.splitlines()]
    for want in cmd.lines:
        if not any(re.fullmatch(want, ln) for ln in present):
            return f"no stdout line matches {want!r}"
    if cmd.cert_kind is not None:
        try:
            cert = json.loads(stdout)
        except json.JSONDecodeError as e:
            return f"stdout is not a certificate: {e}"
        if not isinstance(cert, dict) or cert.get("kind") != cmd.cert_kind:
            return f"certificate kind is not {cmd.cert_kind!r}"
        if cmd.cert_aut_order is not None:
            got = cert.get("evidence", {}).get("aut_order")
            if got != cmd.cert_aut_order:
                return f"certificate aut_order {got}, expected {cmd.cert_aut_order}"
    return None
