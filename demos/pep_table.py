"""Walk through the QPSK error-event analysis at 20 dB SNR.

For the transmitted codeword (1+1j, 1+1j) there are 15 possible error
events. Each has a squared distance alpha*|u|^2 + (1-alpha)*|v|^2 and a PEP
bound (1/(1 + d2/(4 n0)))^2. Weighting each PEP by its bit count and
dividing by the 4 bits per codeword gives the union bound on the average
bit error probability -- the quantity that makes the power-balanced system
(alpha = 0.5) the clear winner. Every QPSK codeword sees the same 15 events,
so that sum is exactly ``union_bound_value``, which the footer prints.
"""

from noma_uplink import (
    TABLE_ALPHAS,
    build_constellation,
    error_event_pep_table,
    union_bound_value,
)

N0 = 0.01  # 1/N0 = 100, i.e. 20 dB
rows = error_event_pep_table(n0=N0)

print("QPSK error events, transmitted codeword (1+1j, 1+1j), 1/N0 = 100")
print(f"{'event':>6} {'u':>6} {'v':>6} {'bits':>4} "
      f"{'d2(a=0.5)':>10} {'d2(a=0.9)':>10} {'PEP(0.5)':>10} {'PEP(0.9)':>10}")
for r in rows:
    print(f"{r.event_id:>6} {str(r.u):>6} {str(r.v):>6} {r.n_bits:>4} "
          f"{r.d2_alpha_lo:>10.2f} {r.d2_alpha_hi:>10.2f} "
          f"{r.pep_alpha_lo:>10.2e} {r.pep_alpha_hi:>10.2e}")

qpsk = build_constellation("qpsk")
lo, hi = (union_bound_value(qpsk, a, N0) for a in TABLE_ALPHAS)
print()
print(f"bit-weighted ABEP union bound, alpha = 0.5: {lo:.2e}")
print(f"bit-weighted ABEP union bound, alpha = 0.9: {hi:.2e}")
print(f"imbalance penalty: {hi / lo:.1f}x")
print()
print("Note how the alpha = 0.9 column is dominated by E2, E4 and E10: the")
print("events where only the low-power user errs. Shrinking its share of")
print("the power makes those events an order of magnitude more likely.")
