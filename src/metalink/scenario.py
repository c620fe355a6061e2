"""The end-to-end pipeline: simulate a validated scenario, then write it.

Modes:
  transmit_link          feed tone -> data-modulating surface -> rx antennas
  space_down_conversion  feed tone -> staircase-ramping surface -> rx antenna
  integrated             the transmit link, then the surface switches to the
                         ramp while the first rx point transmits a modulated
                         frame back through it to the feed antenna

run_scenario loads and validates a scenario (schema), simulates it and
writes its artifacts (artifacts). Runs are pure functions of the scenario
plus rng_seed, so repeated runs produce byte-identical artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import artifacts, core, metasurface, propagation, schema, spectral, txrx
from .core import BLOCK
# re-exported, so that scenario.<name> keeps reaching them
from .schema import Scenario, apply_overrides, load_scenario, validate  # noqa: F401

LINE_TIE = 1e-9  # relative power within which two spectral lines tie


@dataclass
class ScenarioResult:
    reports: dict
    summary: dict


def _rng(sc: Scenario, index: int) -> np.random.Generator:
    """Frame index's generator, from child index of SeedSequence(sc.rng_seed)
    built alone, as spawn would build it."""
    return np.random.default_rng(np.random.SeedSequence(sc.rng_seed, spawn_key=(index,)))


def _payload(sc: Scenario, num_streams: int, rng) -> np.ndarray:
    """The payload's (streams x payload) bit words, one integers draw from
    rng in scheme.word_weights.dtype."""
    return rng.integers(0, len(sc.scheme.points), (num_streams, sc.payload_symbols),
                        dtype=sc.scheme.word_weights.dtype)


def _fill_noise(rng, out: np.ndarray, variance: float) -> None:
    """Fill the complex array out with i.i.d. circular complex Gaussians of
    that variance, each drawn from rng as a standard-normal pair, real first."""
    rng.standard_normal(out=out.view(np.float64))
    out *= np.sqrt(variance / 2.0)


def _rotation(num: int, den: int, count: int) -> np.ndarray:
    """exp(-2j*pi*n*num/den) for n < count, den > 0. Each phase drops its
    whole turns in integers, n * num mod den, before it is rounded, so it is
    within half an ulp of exact in [0, 1) whatever n; n * num (n < den) is
    exact in int64 while den * |num| < 2**63, checked. One period of
    den / gcd(num, den) values, or count if fewer, is formed and tiled
    (_tile); a one-value period is a read-only broadcast of 1."""
    length = min(count, den // math.gcd(num, den))
    if length <= 1:
        return np.broadcast_to(np.ones(1, dtype=np.complex128), count)
    if den * abs(num) >= 1 << 63:
        raise core.ConfigurationError(
            f"a ramp period of {den} samples is too long to derotate exactly")
    return _tile(np.exp(-2j * np.pi * (np.arange(length, dtype=np.int64) * num % den / den)),
                 count)


def _tile(period: np.ndarray, count: int) -> np.ndarray:
    """period repeated end to end to count values: period itself, cut to
    count, when it covers count, else one array of exactly count values."""
    if len(period) >= count:
        return period[:count]
    whole, tail = divmod(count, len(period))
    tiled = np.empty(count, dtype=period.dtype)
    tiled[:count - tail].reshape(whole, -1)[...] = period
    tiled[count - tail:] = period[:tail]
    return tiled


def _held(row: np.ndarray, sent, steps: int, hold: int, length: int) -> np.ndarray:
    """The first length samples of a zero-order hold of row's weights:
    value v = k * steps + j of symbol k (j < steps) is
    sent[k] * row[v mod len(row)], held for hold samples. sent is one number
    for all symbols, or one per symbol (at least those begun), repeated
    steps times; row is tiled (_tile), so nothing is gathered. The samples
    are written once, into a fresh array of length samples."""
    count = -(-length // hold)  # values begun; the last may be cut short
    sent = np.repeat(sent[:-(-count // steps)], steps)[:count] if np.ndim(sent) else sent
    values = np.multiply(sent, _tile(row, count))
    samples = np.empty(length, dtype=np.complex128)
    whole = length // hold
    samples[:whole * hold].reshape(whole, hold)[...] = values[:whole, np.newaxis]
    samples[whole * hold:] = values[whole:]
    return samples


def _add_noise(sc: Scenario, rng, means, head, num: int, den: int) -> None:
    """Add a frame's receiver noise, drawn from rng, in place to point 0's
    head samples and to the (points x symbols) per-symbol means.

    Each point's received samples carry i.i.d. circular complex Gaussian
    noise of variance noise_psd, drawn as _fill_noise. First one value per
    sample of each symbol the head covers, its last perhaps cut short, in
    order: the head adds the values of the samples it holds, and each
    covered symbol adds the mean of all its samples' noise, derotated by
    exp(-2j*pi*n*num/den) at sample n. The mean of sps samples of that noise
    is one circular Gaussian of variance noise_psd / sps, so then each
    remaining mean gets one draw of it: point 0's uncovered symbols, then
    each other point's.

    The values are drawn and added one block at a time into one reused
    buffer: whole covered symbols, at most BLOCK values or one symbol, then
    at most BLOCK means. A generator draws the same values in blocks as at
    once, so no noise array of the means' size is formed; each is filled
    inline as _fill_noise fills, so the calls do not grow with the frame.
    """
    sps = sc.samples_per_symbol * sc.oversample
    covered = -(-len(head) // sps)  # the head's last symbol may be cut short
    symbols = max(1, BLOCK // sps)  # whole symbols of head noise a block
    # point 0's uncovered means, then each other point's, in memory order
    rest = means.reshape(-1)[covered:]
    buffer = np.empty(max(min(covered, symbols) * sps, min(len(rest), BLOCK)),
                      dtype=np.complex128)
    scale = np.sqrt(sc.noise_psd / 2.0)
    # sample i of symbol k is derotated by start[k] * within[i]
    within, start = _rotation(num, den, sps), _rotation(num * sps, den, covered)
    for k in range(0, covered, symbols):
        count = min(symbols, covered - k)
        noise = buffer[:count * sps]
        rng.standard_normal(out=noise.view(np.float64))
        noise *= scale
        means[0, k:k + count] += np.einsum(
            "ki,i->k", noise.reshape(count, sps), within) * (start[k:k + count] / sps)
        part = head[k * sps:(k + count) * sps]
        part += noise[:len(part)]
    scale = np.sqrt(sc.noise_psd / sps / 2.0)
    for i in range(0, len(rest), BLOCK):
        noise = buffer[:min(BLOCK, len(rest) - i)]
        rng.standard_normal(out=noise.view(np.float64))
        noise *= scale
        rest[i:i + len(noise)] += noise


def _frame(sc: Scenario, gains: np.ndarray, rng, tag: str,
           ramp: bool = False) -> txrx.LinkReport:
    """Send one frame through the surface, whose (streams x points) stream
    gains G simulate folds, and detect it at the points; the first point's
    spectrum goes under tag. The frame draws its payload (_payload) and
    then its noise (_add_noise) from rng, and nothing else.

    A link frame (ramp False) writes len(gains) streams of symbols onto the
    feed's unit tone, so symbol k reaches point p as weights[p, k] =
    sum_s G[s, p] * x[s, k], x the coefficients of
    txrx.symbol_coefficients, and a symbol holds one value, its mean. In the
    receive phase (ramp True) one stream sent[k] reaches the ramping
    surface, every cell carrying the ramp, so its one-period weights
    w = G.T @ metasurface.ramp_period are w[p, m] = w[p, 0] *
    exp(2j*pi*direction*m/L) to rounding. Sample
    n = (k * steps + j) * hold + i of symbol k (j < steps, i < hold) is
    sent[k] * w[p, (k * steps + j) mod L], derotated by exp(-2j*pi*n*num/den),
    num/den = direction / (L * hold), the ramp's own line
    (Scenario.ramp_line_hz) whatever period_s rounds to. Each step's phase
    cancels that of its derotation, so every mean is sent[k] * w[p, 0] * rho,
    rho the mean of exp(-2j*pi*i*num/den) over i < hold (_rotation, its
    phases exact); |rho| = sin(pi/L) / (hold sin(pi/(L hold))) is the
    ramp's conversion gain.

    Only point 0's spectrum head is written (_held), one rule for every
    frame. Its spectrum_length samples x hold each value for hold samples,
    so with g = gcd(hold, spectrum_length), x[g * m + s] = y[m] for s < g.
    A noiseless head is the spectrum_length / g samples y, and
    power_spectrum forms x's spectrum from their transform with the hold's
    kernel (within about 1e-15 of the peak power of a transform of x). A
    noisy head takes g = 1, and _add_noise adds the noise to its samples
    and to the means. The head is transformed in place, so it holds no
    second copy, and it is freed before detect runs, as are the receive
    phase's sent symbols, which detect forms again from the words.
    """
    words = _payload(sc, len(gains), rng)
    rate, sps = sc.envelope_rate(), sc.samples_per_symbol * sc.oversample
    if ramp:
        weights = gains.T @ metasurface.ramp_period(sc.staircase)[np.newaxis]
        hold = sc.oversample
        num, den = sc.staircase.direction, sc.staircase.steps_per_period * hold
        sent = txrx.symbol_coefficients(words, sc.scheme)[0]
        means = weights[:, :1] * _rotation(num, den, hold).mean() * sent
    else:
        # the coefficient table is freed once the weights are formed
        means = weights = gains.T @ txrx.symbol_coefficients(words, sc.scheme,
                                                             sc.quantization)
        hold, num, den, sent = sps, 0, 1, 1.0
    length = sc.spectrum_length(means.shape[1] * sps)
    g = math.gcd(hold, length) if sc.noise_psd == 0.0 else 1
    head = _held(weights[0], sent, sps // hold, hold // g, length // g)
    if sc.noise_psd > 0.0:
        _add_noise(sc, rng, means, head, num, den)
    np.fft.fft(head, out=head)  # in place: the head becomes its DFT
    spectrum = spectral.power_spectrum(head, rate, g)
    del head, sent  # freed before detection
    report = txrx.detect(means, sc.scheme, words)
    report.spectra[tag] = spectrum
    return report


def _harmonic_table(sc: Scenario, spectrum: spectral.Spectrum) -> list:
    L = sc.staircase.steps_per_period
    total = spectrum.total_power
    if total == 0.0:  # a zero channel, or a power that underflowed
        raise txrx.DetectionError("space-down-converted output carries no power",
                                  math.inf)
    indices = [1 + k * L for k in range(-3, 4)]
    rows = []
    line, nyquist = sc.ramp_line_hz(), sc.envelope_rate() / 2
    for q, amplitude in zip(indices, spectral.staircase_harmonics(L, indices)):
        freq = q * line
        if not -nyquist < freq <= nyquist:
            continue  # the periodogram's bins span (-fs/2, fs/2]
        predicted = float(amplitude ** 2)
        measured = spectral.line_power(spectrum, freq) / total
        rows.append({"harmonic_index": q, "freq_hz": freq,
                     "power_fraction": measured,
                     "predicted_fraction": predicted})
    return rows


def simulate(sc: Scenario) -> ScenarioResult:
    """Run a validated scenario without writing artifacts.

    The feed lights the surface and the observation points receive. In
    space_down_conversion mode the surface ramps a plain tone; otherwise it
    carries a frame (_frame), and in integrated mode the receive phase
    follows, over the transmit phase's channels reversed: identity and
    free-space gains are reciprocal.

    Each frame's stream gains are folded here (propagation.stream_gains):
    by partition for a link frame, every cell as one stream for a ramp. A
    run's bytes depend on two forms: the SDC fold multiplies
    feed * obs[:, :1] and the receive phase's, over the swapped ChannelSet,
    obs[:, 0] * feed, which numpy may round differently; and a ramp's
    weights are the matmul G.T @ metasurface.ramp_period, not a product
    with the scalar G[0, 0].

    Draw order, on which a run's bytes depend: frame f draws everything
    from its own generator, _rng(sc, f), built only when it draws. Frame 0
    is the link frame, the integrated transmit phase or the SDC capture;
    frame 1 is the integrated receive phase. A frame draws its payload
    first (_payload), so the payload depends on neither noise_psd nor
    spectrum_bins, and then, when noise_psd > 0, its noise (_add_noise).

    SDC mode writes one ramp period of point 0's envelope: the weights of
    one period on the feed's unit tone, each held for oversample samples.
    Its capture is that period repeated P = sdc_periods times, whose DFT is
    P times the period's DFT on every P-th bin and 0 on every other. So a
    noiseless output spectrum is the period's periodogram on every P-th bin
    and exactly 0 elsewhere, held as a Spectrum of stride P. A noisy one
    draws the capture's per-sample noise from frame 0, as _fill_noise,
    transforms it in place, adds P times the period's DFT to every P-th bin
    of the noise's DFT, and takes their power_spectrum. Its input spectrum,
    the unit tone's, is in closed form: power 1 in the 0 Hz bin and 0 in
    every other, one value at the capture's length as stride.
    """
    channels = propagation.build_channels(sc.geometry, sc.points, sc.channel)
    integrated = sc.mode == "integrated"
    if sc.mode == "space_down_conversion":
        gains = propagation.stream_gains(
            np.zeros(channels.num_cells, np.int64), 1,  # every cell carries the ramp
            propagation.ChannelSet(channels.feed_gains, channels.obs_gains[:, :1]))
        weights = gains.T @ metasurface.ramp_period(sc.staircase)[np.newaxis]
        period = np.repeat(weights[0], sc.oversample)
        rate, periods = sc.envelope_rate(), sc.sdc_periods
        length = periods * len(period)
        if sc.noise_psd > 0.0:
            bins = np.empty(length, dtype=np.complex128)
            _fill_noise(_rng(sc, 0), bins, sc.noise_psd)
            np.fft.fft(bins, out=bins)  # in place: the noise becomes its DFT
            bins[::periods] += periods * np.fft.fft(period)
            output = spectral.power_spectrum(bins, rate)
            del bins  # freed before the input spectrum
        else:  # one's bin j is the capture's bin j * periods
            one = spectral.power_spectrum(np.fft.fft(period), rate)
            output = spectral.Spectrum(one.values, rate / length, periods)
        report = txrx.LinkReport(spectra={
            "input": spectral.Spectrum(np.ones(1), rate / length, length),
            "output": output})
    else:
        gains = propagation.stream_gains(sc.stream_of_cell,
                                         int(sc.stream_of_cell.max()) + 1, channels)
        report = _frame(sc, gains, _rng(sc, 0), "tx_rx0" if integrated else "rx0")
    reports = {"link": report}
    if integrated:
        back = propagation.stream_gains(
            np.zeros(channels.num_cells, np.int64), 1, propagation.ChannelSet(
                channels.obs_gains[:, 0], channels.feed_gains[:, np.newaxis]))
        reports = {"transmit": report,
                   "receive": _frame(sc, back, _rng(sc, 1), "sdc_rx0", ramp=True)}
    return ScenarioResult(reports, _summarize(sc, reports))


def _summarize(sc: Scenario, reports: dict) -> dict:
    out = {"scenario": sc.name, "mode": sc.mode, "rng_seed": sc.rng_seed,
           "reports": {}}
    for key, report in reports.items():
        entry = {
            "streams": report.num_streams,
            "evm_percent": report.evm_percent.tolist(),
            "ber": report.ber.tolist(),
            "condition_number": report.condition_number,
        }
        if report.channel_estimate is not None:
            entry["channel_estimate"] = [[[h.real, h.imag] for h in row]
                                         for row in report.channel_estimate.tolist()]
        out["reports"][key] = entry
    if sc.mode == "space_down_conversion":
        # tied lines (a two-step ramp's at +-shift) go to the expected one
        spectrum = reports["link"].spectra["output"]
        values = spectrum.values
        tied = np.flatnonzero(values >= (1.0 - LINE_TIE) * values.max())
        lines = (spectrum.first_line + tied * spectrum.stride) * spectrum.resolution
        out["strongest_line_hz"] = float(lines[np.argmin(np.abs(lines - sc.ramp_line_hz()))])
        out["harmonics"] = _harmonic_table(sc, spectrum)
    if sc.mode in schema.SDC_MODES:  # the modes whose staircase validate requires
        out["expected_line_hz"] = sc.ramp_line_hz()
    return out


def run_scenario(source, out_dir, overrides: dict | None = None) -> ScenarioResult:
    """Load, validate, simulate, and write artifacts; the CLI entry path."""
    data = load_scenario(source)
    if overrides:
        data = apply_overrides(data, overrides)
    sc = Scenario.from_dict(data)
    result = simulate(sc)
    artifacts.write_artifacts(result, out_dir)
    return result
