"""The ``serve-mix`` reference verdicts: a direct validator pass.

Usage::

    python perfbench/reference.py [OUT_JSON]

Validates every file a ``serve-mix`` schedule can send (each population
file under each of its :data:`inputs.VARIANTS` names) with a plain
:class:`repro.core.validator.TestsuiteValidator` (the daemon's defaults,
no cache) and writes ``{file name: digest of its encoded verdict}`` to
``OUT_JSON`` (default ``perfbench/serve_verdicts.json``).  A verdict
does not depend on which other files share its pipeline run, which is
what lets the daemon batch requests, so one run over all files stands
for a pass per request.  The committed file was computed at the commit
that introduced the benchmark: every served verdict must match it byte
for byte.
"""

import json
import sys
from pathlib import Path

from harness import verdict_digest
from inputs import population, variants

DEFAULT_OUT = Path(__file__).resolve().parent / "serve_verdicts.json"


def main(argv: list[str]) -> int:
    from repro.core.validator import TestsuiteValidator
    from repro.service.protocol import encode_verdict

    out = Path(argv[0]) if argv else DEFAULT_OUT
    by_flavor: dict[str, dict[str, str]] = {}
    for flavor, name, source in variants(population()):
        by_flavor.setdefault(flavor, {})[name] = source
    digests = {}
    for flavor, sources in by_flavor.items():
        report = TestsuiteValidator(flavor=flavor).validate_sources(sources)
        for name in sources:
            digests[name] = verdict_digest(encode_verdict(report.verdict_for(name)))
    out.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} verdict digests to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
