#!/usr/bin/env python3
"""Print `sha256  file` for the payload of every CLI command at small fixed configs.

The one acceptance study without a command, `occupancy_study`, is run too and
its header and row are hashed as `occupancy_study.csv`.  The 33-replicate
quadratic exit-time run splits into two lane tiles of unequal size (17 and
16 on two CPUs), and its second chunk into two tiles of two lanes; the
33-replicate double-well run takes the per-step scan over two
chunks, with its noise fill split into shares of an odd number of lanes.
The `exit-brownian` run adds a Brownian part to the stable noise, so each
lane draws its normals after its stable block.  The per-step engine holds
a chunk in pieces of 2**19 variates: the first 8192-step chunks of the
200-lane `transition-pieces` run split into pieces of 2621 steps, the last
of 329, and those of the 100-lane `exit-well-brownian` run into 5242 and
2950 steps, with the Brownian normals drawn after the stable block.  The `converge-blocks` run
draws its noise in blocks of 8 steps, the last block of each K ragged.
Large one-generator draws are made in blocks of 8192 variates; the
`sample-blocks` (alpha 2), `estimate-blocks` (alpha 1), both `converge`
runs at d 10 (their sigma_gamma estimates and squared-norm buffers) and
`train-wide-inject` runs cross block boundaries and end on a ragged block.
Every listed value of every enumerated key runs at least once, except
`--source mnist`, which needs IDX files.  The other `train` runs use width
8; `train-wide.csv` and `train-wide-inject.csv` run the benchmark's width
128, where BLAS may take other kernels for the layer products.

Each command writes into a fresh temporary $LEVYLAB_OUT; the wall-time line
is stripped before hashing, so two checkouts that produce the same payloads
print the same lines.  Diff the output of two checkouts to check a refactor.
"""
import hashlib
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from levylab.cli import main  # noqa: E402
from levylab.objectives import double_well  # noqa: E402
from levylab.rng import RngStream  # noqa: E402
from levylab.studies import occupancy_study  # noqa: E402

RUNS = [
    "sample --alpha 1.5 --n 200 --seed 1",
    "sample --alpha 2.0 --n 20001 --seed 16 --output sample-blocks.csv",
    "estimate --alpha 1.5 --n 5000 --seed 2",
    "estimate --alpha 1.0 --n 20001 --seed 17 --output estimate-blocks.csv",
    "stability --source mixture --n 3000 --seed 3",
    "stability --alpha 1.5 --n 3000 --threshold 5 --seed 3 --output stability-sas.csv",
    "stability --source gaussian --n 3000 --seed 3 --output stability-gaussian.csv",
    "exit-time --objective quadratic --alpha 1.6 --eps 0.5 --a 1.0 --eta 0.01 --reps 20"
    " --seed 4 --output exit-quadratic.csv --records_output exit-quadratic-records.csv",
    "exit-time --objective quadratic --dim 2 --alpha 1.8 --eps 0.1 --a 1.0 --eta 0.01"
    " --reps 20 --noise_scaling cf --time_cap_factor 1.1 --seed 4 --output exit-2d.csv"
    " --records_output exit-2d-records.csv",
    "exit-time --objective quadratic --alpha 1.5 --eps 0.1 --a 1.0 --eta 0.01 --reps 33"
    " --time_cap_factor 2 --seed 11 --output exit-tiles.csv"
    " --records_output exit-tiles-records.csv",
    "exit-time --objective quadratic --alpha 1.6 --eps 0.5 --a 1.0 --eta 0.01 --reps 20"
    " --sigma_brownian 0.5 --seed 13 --output exit-brownian.csv"
    " --records_output exit-brownian-records.csv",
    "exit-time --objective double_well --start_basin 1 --alpha 1.5 --eps 0.5 --a 0.5"
    " --eta 0.01 --reps 20 --seed 5 --output exit-well.csv"
    " --records_output exit-well-records.csv",
    "exit-time --objective double_well --start_basin 1 --alpha 1.5 --eps 0.05 --a 0.5"
    " --eta 0.01 --reps 33 --time_cap_factor 2 --seed 12 --output exit-well-pool.csv"
    " --records_output exit-well-pool-records.csv",
    "exit-time --objective double_well --start_basin 1 --alpha 1.5 --eps 0.1 --a 0.5"
    " --eta 1e-3 --reps 100 --sigma_brownian 0.5 --time_cap_factor 1.1 --seed 21"
    " --output exit-well-brownian.csv --records_output exit-well-brownian-records.csv",
    "transition --alpha 1.2 --eps 0.4 --eta 0.01 --reps 20 --seed 6"
    " --records_output transition-records.csv",
    "transition --alpha 1.2 --eps 0.2 --eta 1e-3 --reps 200 --time_cap_factor 1.1 --seed 20"
    " --output transition-pieces.csv --records_output transition-pieces-records.csv",
    "metastability --minima -1,2,4 --saddles 0,3 --alpha 1.3",
    "converge --noise sas --d 2 --ks 50,100 --reps 5 --sigma_samples 2000 --seed 7",
    "converge --noise sas --d 10 --ks 203,410 --reps 100 --seed 14 --output converge-blocks.csv",
    "converge --noise gaussian --d 2 --ks 50,100 --reps 5 --sigma_samples 2000 --seed 7"
    " --output converge-gaussian.csv",
    "converge --noise gaussian --d 10 --ks 203,410 --reps 100 --seed 18"
    " --output converge-gaussian-blocks.csv",
    "train --n 240 --dim 5 --classes 3 --width 8 --b 20 --iters 21 --log_every 10"
    " --measure_c_st true --seed 8",
    "train --n 2000 --dim 20 --classes 10 --width 128 --b 100 --iters 21 --log_every 10"
    " --measure_c_st true --seed 15 --output train-wide.csv",
    "train --n 2000 --dim 20 --classes 10 --width 128 --b 100 --iters 11 --log_every 10"
    " --inject_alpha 1.3 --seed 19 --output train-wide-inject.csv",
    "train --n 240 --dim 5 --classes 3 --width 8 --depth 2 --b 20 --iters 11 --log_every 10"
    " --seed 8 --output train-depth2.csv",
    "train --n 240 --dim 5 --classes 3 --width 8 --b 20 --iters 11 --log_every 10"
    " --inject_alpha 1.3 --inject_scale 2 --seed 8 --output train-inject.csv",
    "train --n 240 --dim 5 --classes 3 --width 8 --b 20 --iters 11 --log_every 10"
    " --loss linear_hinge --seed 8 --output train-hinge.csv",
    "train --n 240 --dim 5 --classes 3 --width 8 --b 20 --iters 11 --log_every 10"
    " --init mean_field --seed 8 --output train-mean-field.csv",
    "sweep --n 40 --classes 2 --dim 5 --widths 8 --batch_sizes 20 --etas 0.001,1e60"
    " --iters 5 --seed 9",
]

with tempfile.TemporaryDirectory() as out:
    os.environ["LEVYLAB_OUT"] = out
    for run in RUNS:
        status = main(run.split())
        if status not in (0, 3):  # 3: sweep's diverging cell marks the run partial
            sys.exit(f"{run!r} exited {status}")
    occ = occupancy_study(double_well(-1.0, 2.0), 1.2, 0.1, 1e-3, RngStream(10),
                          n_replicates=4, n_steps=60_000)
    Path(out, "occupancy_study.csv").write_text(occ.header() + "\n" + occ.csv_row() + "\n")
    for path in sorted(Path(out).iterdir()):
        lines = [ln for ln in path.read_text().splitlines(keepends=True)
                 if not ln.startswith("# wall_time_s")]
        print(f"{hashlib.sha256(''.join(lines).encode()).hexdigest()}  {path.name}")
