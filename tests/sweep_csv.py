"""Read a sweep CSV that ``experiments.run_sweep`` wrote back into typed
records, for the tests that check its rows."""

import csv


def read_sweep_csv(path: str) -> list:
    """Parse a sweep CSV file back into typed records."""
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for r in rows:
        rec = dict(r)
        for key in ("N", "xi", "K"):
            rec[key] = int(r[key])
        for key in ("T", "dT", "h", "eps", "S", "serial_work", "w1",
                    "error_l2", "lipschitz_final"):
            rec[key] = float(r[key]) if r[key] not in ("", None) else float("nan")
        rec["converged"] = r["converged"] == "true"
        out.append(rec)
    return out

