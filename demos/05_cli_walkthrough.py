"""End-to-end command-line walkthrough in a temporary directory, removed at exit.

simulate -> fit -> check-stationarity, plus an order-book ingestion example.
Equivalent shell commands are printed as it goes.
"""

import json
import os
import tempfile

from hawkes_mle.cli import main


def run(argv):
    print("$ hawkes-mle " + " ".join(argv))
    code = main(argv)
    print(f"  -> exit {code}\n")
    assert code == 0


with tempfile.TemporaryDirectory(prefix="hawkes_demo_") as workdir:
    print(f"working in {workdir}")

    config = {
        "model": {"K": 1, "M": 1, "kernels": [{"family": "exponential"}]},
        "domain": {
            "mu_lb": [0.1], "mu_ub": [5.0],
            "alpha_lb": [[[0.0]]], "alpha_ub": [[[0.8]]],
            "beta_lb": [0.5], "beta_ub": [2.0],
        },
        "init": {"mu": [0.5], "alpha": [[[0.3]]], "beta": [1.0]},
        "regularization": {"C": 0.0},
        "optimizer": {
            "algorithm": "aa-ipalm",
            "lbar1": 20000.0, "lbar2": 500.0,
            "memory": 5, "max_iters": 150,
        },
        "horizon": 200.0,
    }
    cfg = os.path.join(workdir, "config.json")
    with open(cfg, "w") as f:
        json.dump(config, f, indent=2)

    events = os.path.join(workdir, "events.csv")
    params = os.path.join(workdir, "params.json")
    trace = os.path.join(workdir, "trace.csv")

    run(["simulate", "--config", cfg, "--seed", "42", "--out", events])
    run(["fit", "--events", events, "--config", cfg, "--out", params, "--trace", trace])
    run(["check-stationarity", "--params", params])

    # Order-book message ingestion: map codes to limit/market/cancel per side.
    messages = os.path.join(workdir, "messages.csv")
    with open(messages, "w") as f:
        f.write("34200.1,1,10,100,5000,1\n")   # limit bid
        f.write("34200.2,4,10,50,5000,-1\n")   # market ask
        f.write("34200.3,2,10,50,5000,1\n")    # cancel bid
    mapping = os.path.join(workdir, "mapping.json")
    with open(mapping, "w") as f:
        json.dump({"1": "L", "2": "C", "3": "C", "4": "M", "5": "M"}, f)
    lob_events = os.path.join(workdir, "lob_events.csv")
    run(["ingest-lobster", "--messages", messages, "--types", mapping,
         "--out", lob_events])
    with open(lob_events) as f:
        print("ingested events:\n" + f.read())
