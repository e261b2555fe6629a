"""File-based production workflow, as driven from the command line.

Writes a population CSV with a realized certainty-stratum flag, builds a
design file, draws the sample, evaluates the estimators on it, and runs
the homogeneity test, using the same entry points as the `seqdi` CLI:

    seqdi design   --pop pop.csv --np 242 --kind optimal --out design.csv
    seqdi estimate --pop pop.csv --sample sample.csv --estimators di,sep
    seqdi test     --pop pop.csv --sample sample.csv --alpha 0.05

The files live in a temporary directory that is removed at the end.
"""

import tempfile
from pathlib import Path

from seqdi import (
    RngStream,
    SelectionMechanism,
    calibrate_intercept,
    draw_nonprob,
    generate_population,
    save_population_csv,
)
from seqdi.cli import main
from seqdi.population import load_sample_csv, write_csv

with tempfile.TemporaryDirectory(prefix="seqdi_demo_") as tmp:
    workdir = Path(tmp)
    pop_path = workdir / "population.csv"
    design_path = workdir / "design.csv"
    sample_path = workdir / "sample.csv"
    estimates_path = workdir / "estimates.csv"

    # Population file with a delta column marking the realized certainty stratum.
    pop = generate_population(
        {"N": 2839, "beta": (10.0, 15.0, 10.0, 20.0), "sigma": 0.6}, RngStream(11, 0)
    )
    mech = SelectionMechanism("MAR", (2.0, -2.0), target_rate=0.786)
    mech.intercept = calibrate_intercept(mech, pop)
    partition = draw_nonprob(pop, mech, RngStream(11, 1))
    save_population_csv(pop_path, pop, partition=partition)
    print(f"population file: {pop_path} (N1 = {partition.n_complement})")

    # Design construction through the CLI entry point.
    n_p = int(0.4 * partition.n_complement)
    main(["design", "--pop", str(pop_path), "--np", str(n_p),
          "--kind", "optimal", "--out", str(design_path)])

    # Draw the Poisson sample from the design file and store id, pi.
    ids, pi, _ = load_sample_csv(design_path)
    selected = RngStream(11, 2).bernoulli(pi)
    write_csv(sample_path, ["id", "pi"],
              [[uid for uid, sel in zip(ids, selected) if sel], pi[selected]])
    print(f"sample file: {sample_path} ({int(selected.sum())} units)")

    # One-shot estimation and the homogeneity diagnostic.
    main(["estimate", "--pop", str(pop_path), "--sample", str(sample_path),
          "--estimators", "di,ht,sep,com", "--weights", "sigma",
          "--out", str(estimates_path)])
    main(["test", "--pop", str(pop_path), "--sample", str(sample_path), "--alpha", "0.05"])

print(f"\ntrue total for reference: {pop.true_total:,.1f}")
