"""Receiver noise after the receive chain, against closed-form AWGN theory.

Integrate-and-dump over sps = samples_per_symbol * oversample samples of
i.i.d. circular noise of variance noise_psd per sample leaves a circular
Gaussian of variance noise_psd / sps on each per-symbol mean, whatever way
the simulator draws it. Given the estimate h_est that detect reports and the
true effective gains H (points x streams), zero-forcing leaves on stream s
the error pinv(h_est)[s] @ (H x + n) - x_s: a fixed part d_s, from the
estimate's error, plus noise of variance noise_psd / sps * |pinv(h_est)[s]|^2.
The pilot noise that made h_est is independent of the payload noise, so the
checks below hold conditioned on h_est:

  - sum over the payload of |error|^2, over half that variance, is
    noncentral chi-square with 2K degrees of freedom and noncentrality
    sum |d_s|^2 over half the variance; the reported EVM^2 must lie within
    5 sigma of its mean;
  - each BPSK and QPSK bit is decided by the sign of one axis of
    g x + w, g = pinv(h_est) @ H, so its error probability is a Q-function;
    the bit error count must lie within 4 sigma of the sum of those
    probabilities (a Poisson-binomial count).

H comes in closed form from the channel gains: G[s, p] sums
feed_gains[c] * obs_gains[c, p] over the cells of stream s, and the carrier
has unit amplitude. The integrated receive phase ramps the surface through
each symbol, and every symbol spans whole ramp periods, so its gain is one
constant, which the noiseless run's estimate gives exactly. Seeds are fixed.
"""

import math

import numpy as np
import pytest

from metalink import propagation
from metalink import scenario as scen


def run(name, overrides):
    data = scen.apply_overrides(scen.load_scenario(name), overrides)
    sc = scen.Scenario.from_dict(data)
    return sc, scen.simulate(sc)


def link_gains(sc) -> np.ndarray:
    """H (points x streams) of a link phase, summed cell by cell."""
    channels = propagation.build_channels(sc.geometry, sc.points, sc.channel)
    streams = int(sc.stream_of_cell.max()) + 1
    gains = np.zeros((channels.num_points, streams), dtype=complex)
    for c, s in enumerate(sc.stream_of_cell):
        gains[:, s] += channels.feed_gains[c] * channels.obs_gains[c]
    return gains


def symbol_variance(sc) -> float:
    return sc.noise_psd / (sc.samples_per_symbol * sc.oversample)


def evm_z_scores(report, gains, variance) -> list:
    """Per stream, the reported EVM^2 as a z-score of its noncentral
    chi-square law."""
    inverse = np.linalg.pinv(report.channel_estimate)
    sent = report.points[report.sent_words]
    fixed = inverse @ gains @ sent - sent
    scores = []
    for s in range(len(sent)):
        half = variance * np.sum(np.abs(inverse[s]) ** 2) / 2.0
        dof = 2 * sent.shape[1]
        centrality = np.sum(np.abs(fixed[s]) ** 2) / half
        power = np.mean(np.abs(sent[s]) ** 2)
        statistic = (report.evm_percent[s] / 100.0) ** 2 * power * sent.shape[1] / half
        scores.append((statistic - dof - centrality) / math.sqrt(2 * (dof + 2 * centrality)))
    return scores


ONE_STREAM = {  # mimo2x2_16qam's surface into its first rx point alone
    "partition": "full",
    "points": [{"position_m": [0.0, 0.0, 0.5], "role": "feed"},
               {"position_m": [0.5, 0.0, 1.0], "role": "rx"}],
    "channel.matrix": [[row[0]] for row in
                       scen.load_scenario("mimo2x2_16qam")["channel"]["matrix"]],
}


@pytest.mark.parametrize("noise_psd", [1e-3, 1e-2, 1e-1])
@pytest.mark.parametrize("overrides", [{}, ONE_STREAM], ids=["mimo2x2", "one_stream"])
def test_link_evm_matches_closed_form(overrides, noise_psd):
    sc, result = run("mimo2x2_16qam", {**overrides, "channel.noise_psd": noise_psd,
                                       "rng_seed": 7})
    report = result.reports["link"]
    scores = evm_z_scores(report, link_gains(sc), symbol_variance(sc))
    assert len(scores) == (1 if overrides else 2)
    assert all(abs(z) < 5.0 for z in scores), scores


def test_integrated_evm_matches_closed_form_in_both_phases():
    # 1e-7 is the level at which both free-space phases still decode; at
    # 8192 symbols a noise variance 11 % high moves each phase's z by 8 to
    # 9, where the bundled 512 move it by under 2, inside the bound
    long = {"frame.payload_symbols": 8192}
    sc, result = run("integrated_switch", {**long, "channel.noise_psd": 1e-7})
    _, clean = run("integrated_switch", long)
    transmit, receive = result.reports["transmit"], result.reports["receive"]
    gains = {"transmit": link_gains(sc),
             "receive": clean.reports["receive"].channel_estimate}
    for key, report in (("transmit", transmit), ("receive", receive)):
        scores = evm_z_scores(report, gains[key], symbol_variance(sc))
        assert all(abs(z) < 5.0 for z in scores), (key, scores)
    assert np.all(receive.ber == 0.0) and 1.0 < receive.evm_percent[0] < 10.0


def q_function(x):
    return 0.5 * np.vectorize(math.erfc)(np.asarray(x) / math.sqrt(2.0))


def bit_error_probabilities(report, gains, variance) -> np.ndarray:
    """Per payload bit of a one-stream BPSK or QPSK link, the probability
    that the sign decision on its axis flips it, given h_est."""
    inverse = np.linalg.pinv(report.channel_estimate)
    sent = report.points[report.sent_words[0]]
    spread = math.sqrt(variance * np.sum(np.abs(inverse[0]) ** 2) / 2.0)
    clean = (inverse @ gains)[0, 0] * sent
    margins = [np.sign(sent.real) * clean.real]
    if np.any(sent.imag != 0.0):  # QPSK: the imaginary axis carries a bit too
        margins.append(np.sign(sent.imag) * clean.imag)
    return q_function(np.concatenate(margins) / spread)


@pytest.mark.parametrize("modulation, noise_psd", [
    ("BPSK", 20.0), ("BPSK", 40.0), ("QPSK", 10.0), ("QPSK", 20.0)])
def test_one_stream_ber_matches_the_q_function(modulation, noise_psd):
    # Es/N0 about 5 and 2 dB for BPSK, 8 and 5 dB for QPSK (|H|^2 = 1.585,
    # 40 samples per symbol): tens to hundreds of errors in 10^4 symbols
    sc, result = run("mimo2x2_16qam", {**ONE_STREAM, "modulation": modulation,
                                       "channel.noise_psd": noise_psd, "rng_seed": 11})
    report = result.reports["link"]
    p = bit_error_probabilities(report, link_gains(sc), symbol_variance(sc))
    errors = report.ber[0] * p.size
    expected, sigma = p.sum(), math.sqrt(np.sum(p * (1.0 - p)))
    assert expected > 20.0
    assert abs(errors - expected) <= 4.0 * sigma, (errors, expected, sigma)
