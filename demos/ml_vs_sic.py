"""Compare joint ML detection against the 2M-metric SIC baseline.

Both detectors see exactly the same codewords, channels and noise (the
random stream is keyed on the operating point, not the detector), so this
is a paired comparison. At alpha = 0.9 the SIC stage-1 slicer still faces
10% of the total power as un-cancelled interference, which costs it dearly
against joint ML over all 16 codeword hypotheses. ML scores the M^2 = 16
metrics of each trial in one Gram-form table, and SIC scores 2M = 8.
"""

from noma_uplink import SimConfig, sweep

GRID = (8.0, 12.0, 16.0, 20.0, 24.0)

results = {}
for detector in ("ml", "sic"):
    cfg = SimConfig(kind="qpsk", detector=detector, alphas=(0.9,), ebn0_db_grid=GRID,
                    seed=20260811, min_bit_errors=300, max_codewords=1_000_000,
                    workers=2)
    results[detector] = sweep(cfg)[0]

print("QPSK, alpha = 0.9, identical random streams for both detectors")
print(f"{'Eb/N0':>6} {'BER (ML, 16 metrics)':>22} {'BER (SIC, 8 metrics)':>22} {'ratio':>7}")
for p_ml, p_sic in zip(results["ml"].points, results["sic"].points):
    ratio = p_sic.ber / p_ml.ber if p_ml.ber else float("inf")
    print(f"{p_ml.ebn0_db:>5.0f}dB {p_ml.ber:>22.3e} {p_sic.ber:>22.3e} {ratio:>6.1f}x")

print()
print("SIC scores half the metrics of joint ML and pays an error floor set by")
print("the weak user's interference; joint ML keeps the full diversity.")
