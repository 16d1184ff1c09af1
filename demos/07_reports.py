"""
Machine-readable verification runs
==================================

Every check family can be executed as a batch and emitted as a report:
a JSON document plus a CSV mirror, byte-stable for a fixed seed and
config.  The same run is scriptable (shown here) or driven from the
command line:

    etaforge eta --out demo_out
    etaforge verify-all --config run.ini --format csv
"""

import json

from etaforge.report import RunConfig, emit_report, run

cfg = RunConfig(command="eta", out="demo_out")
report = run(cfg)
print("rows:", len(report.rows), " all pass:", report.all_pass)
for r in report.rows:
    print(f"  {r['module']}.{r['check']:22s} lhs={r['lhs']!s:22s} "
          f"rhs={r['rhs']!s:8s} pass={r['pass']}")

path = emit_report(report, cfg.out, cfg.format)
print("\nprimary artifact:", path)

# reports embed their own provenance, so a run can be replayed exactly
doc = json.loads(open(path).read())
print("meta:", json.dumps(doc["meta"], indent=2)[:200], "...")

# reruns are byte-identical: the suites derive everything from the seed
again = run(cfg)
print("\nbyte-stable rerun:", again.to_json() == report.to_json())
