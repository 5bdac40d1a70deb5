"""Speech-quality metrics against independent scalar oracles."""

import math

import numpy as np
import pytest

from dereverb import metrics
from dereverb.errors import ContractError
from dereverb.metrics import cepstral_distance, evaluate_pair, fwsegsnr, llr
from dereverb.signal import WaveForm

FS = 4000
FRAME = int(0.032 * FS)


def tone_like(rng, n, lead_silence=0, fs=FS):
    """Deterministic tonal signal with optional leading silence."""
    t = np.arange(n) / fs
    sig = 0.3 * np.sin(2 * np.pi * 220 * t) + 0.15 * np.sin(2 * np.pi * 440 * t + 1.0)
    sig += 0.05 * rng.standard_normal(n)
    if lead_silence:
        sig = np.concatenate([np.zeros(lead_silence), sig])
    return sig


# ---------------------------------------------------------------------------
# scalar oracle: pure-python framing, LPC, cepstrum, quadratic forms, bands
# ---------------------------------------------------------------------------


def oracle_frames(ref, test, fs=FS):
    frame, hop = round(0.032 * fs), round(0.008 * fs)
    n = min(len(ref), len(test))
    num = (n - frame) // hop + 1
    win = [0.5 - 0.5 * math.cos(2 * math.pi * k / frame) for k in range(frame)]
    fr, ft = [], []
    energies = []
    for m in range(num):
        a = [ref[m * hop + k] * win[k] for k in range(frame)]
        b = [test[m * hop + k] * win[k] for k in range(frame)]
        fr.append(a)
        ft.append(b)
        energies.append(sum(v * v for v in a))
    peak = max(energies)
    keep = [e >= peak * 10 ** (-40 / 10.0) for e in energies]
    return (
        [f for f, k in zip(fr, keep) if k],
        [f for f, k in zip(ft, keep) if k],
    )


def oracle_lpc(frame, order=12):
    """(predictor, regularized autocorrelation); predictor is None when the
    frame is degenerate: r[0] <= 0, or the prediction error e <= 0 after any
    Levinson-Durbin step."""
    n = len(frame)
    r = [sum(frame[t] * frame[t + k] for t in range(n - k)) for k in range(order + 1)]
    r[0] *= 1 + 1e-10
    if r[0] <= 0:
        return None, r
    a = [0.0] * order
    e = r[0]
    for i in range(order):
        acc = r[i + 1] - sum(a[j] * r[i - j] for j in range(i))
        k = acc / e
        new = a[:]
        new[i] = k
        for j in range(i):
            new[j] = a[j] - k * a[i - 1 - j]
        a = new
        e *= 1 - k * k
        if e <= 0:
            return None, r
    return a, r


def oracle_cepstrum(a):
    p = len(a)
    c = [0.0] * p
    for n in range(1, p + 1):
        acc = a[n - 1]
        for k in range(1, n):
            acc += (k / n) * c[k - 1] * a[n - k - 1]
        c[n - 1] = acc
    return c


def oracle_cd(ref, test, fs=FS):
    fr, ft = oracle_frames(ref, test, fs)
    vals = []
    for a, b in zip(fr, ft):
        a_ref, a_test = oracle_lpc(a)[0], oracle_lpc(b)[0]
        if a_ref is None or a_test is None:
            continue
        ca, cb = oracle_cepstrum(a_ref), oracle_cepstrum(a_test)
        d2 = sum((x - y) ** 2 for x, y in zip(ca, cb))
        vals.append((10 / math.log(10)) * math.sqrt(2 * d2))
    return sum(vals) / len(vals)


def oracle_llr(ref, test, fs=FS):
    """(value, skipped frames)."""
    fr, ft = oracle_frames(ref, test, fs)
    vals = []
    skipped = 0
    for a_frame, b_frame in zip(fr, ft):
        a_ref, r = oracle_lpc(a_frame)
        a_test, _ = oracle_lpc(b_frame)
        if a_ref is None or a_test is None:
            skipped += 1
            continue
        va = [1.0] + [-x for x in a_ref]
        vb = [1.0] + [-x for x in a_test]
        num = sum(vb[i] * r[abs(i - j)] * vb[j] for i in range(13) for j in range(13))
        den = sum(va[i] * r[abs(i - j)] * va[j] for i in range(13) for j in range(13))
        if num <= 0 or den <= 0:
            skipped += 1
            continue
        vals.append(max(0.0, math.log(num / den)))
    vals.sort()
    keep = max(1, round(len(vals) * 0.95))
    return sum(vals[:keep]) / keep, skipped


def oracle_fwsegsnr(ref, test, fs=FS):
    fr, ft = oracle_frames(ref, test, fs)
    nfft = 1 << (len(fr[0]) - 1).bit_length()
    freqs = [k * fs / nfft for k in range(nfft // 2 + 1)]
    mel = lambda f: 2595 * math.log10(1 + f / 700)
    imel = lambda m: 700 * (10 ** (m / 2595) - 1)
    edges = [imel(mel(0) + (mel(fs / 2) - mel(0)) * i / 24) for i in range(25)]
    vals = []
    for a, b in zip(fr, ft):
        sa = np.abs(np.fft.rfft(np.array(a), nfft)) ** 2
        sd = np.abs(np.fft.rfft(np.array(a) - np.array(b), nfft)) ** 2
        num_w = 0.0
        acc = 0.0
        for band in range(23):
            lo, mid, hi = edges[band], edges[band + 1], edges[band + 2]
            e_ref = e_diff = 0.0
            for k, f in enumerate(freqs):
                w = min((f - lo) / max(mid - lo, 1e-12), (hi - f) / max(hi - mid, 1e-12))
                w = max(0.0, w)
                e_ref += w * sa[k]
                e_diff += w * sd[k]
            weight = math.sqrt(max(e_ref, 0.0)) ** 0.2
            snr = 10 * math.log10(max(e_ref, 1e-20) / max(e_diff, 1e-20))
            acc += weight * snr
            num_w += weight
        vals.append(min(35.0, max(-10.0, acc / num_w)))
    return sum(vals) / len(vals)


class TestCepstralDistance:
    def test_identical_signals(self):
        rng = np.random.default_rng(130)
        sig = tone_like(rng, 3000)
        wf = WaveForm(sig, FS)
        assert cepstral_distance(wf, wf) == 0.0

    def test_gain_invariance(self):
        rng = np.random.default_rng(131)
        sig = tone_like(rng, 3000)
        assert cepstral_distance(WaveForm(sig, FS), WaveForm(0.5 * sig, FS)) == 0.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(132)
        ref = tone_like(rng, 2000)
        test = tone_like(rng, 2000) + 0.02 * rng.standard_normal(2000)
        got = cepstral_distance(WaveForm(ref, FS), WaveForm(test, FS))
        want = oracle_cd(ref, test)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_silent_reference_rejected(self):
        with pytest.raises(ContractError):
            cepstral_distance(WaveForm(np.zeros(2000), FS), WaveForm(np.ones(2000), FS))


class TestLlr:
    def test_identical_signals(self):
        rng = np.random.default_rng(133)
        sig = tone_like(rng, 3000)
        wf = WaveForm(sig, FS)
        assert abs(llr(wf, wf)) < 1e-10

    def test_frame_values_nonnegative(self):
        rng = np.random.default_rng(134)
        ref = tone_like(rng, 3000)
        test = 0.8 * tone_like(np.random.default_rng(999), 3000)
        assert llr(WaveForm(ref, FS), WaveForm(test, FS)) >= 0.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(135)
        ref = tone_like(rng, 2000)
        test = ref + 0.05 * rng.standard_normal(2000)
        got = llr(WaveForm(ref, FS), WaveForm(test, FS))
        want, _ = oracle_llr(ref, test)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_skip_count_reported(self):
        rng = np.random.default_rng(136)
        sig = tone_like(rng, 2000)
        value, skipped = llr(WaveForm(sig, FS), WaveForm(sig, FS), return_skipped=True)
        assert value == 0.0 and skipped == 0


class TestFwsegsnr:
    def test_identical_signals_hit_upper_clamp(self):
        rng = np.random.default_rng(137)
        sig = tone_like(rng, 3000)
        wf = WaveForm(sig, FS)
        assert fwsegsnr(wf, wf) == 35.0

    def test_zero_test_signal_nonpositive(self):
        rng = np.random.default_rng(138)
        ref = tone_like(rng, 3000)
        assert fwsegsnr(WaveForm(ref, FS), WaveForm(np.zeros(3000), FS)) <= 0.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(139)
        ref = tone_like(rng, 2000)
        test = ref + 0.1 * rng.standard_normal(2000)
        got = fwsegsnr(WaveForm(ref, FS), WaveForm(test, FS))
        want = oracle_fwsegsnr(ref, test)
        np.testing.assert_allclose(got, want, atol=1e-9)


class TestDegenerateFrames:
    """Frames with r[0] <= 0 or a non-positive prediction error are dropped."""

    @staticmethod
    def _zeroed_and_dc_step(fs, n):
        ref = tone_like(np.random.default_rng(141), n, fs=fs)
        test = ref + 0.02 * np.random.default_rng(142).standard_normal(n)
        test[n // 4 : n // 2] = 0.0
        test[2 * n // 3 :] += 0.5
        return ref, test

    def test_cd_and_llr_match_scalar_oracle(self):
        ref, test = self._zeroed_and_dc_step(FS, 3000)
        want_llr, want_skipped = oracle_llr(ref, test)
        got_llr, skipped = llr(WaveForm(ref, FS), WaveForm(test, FS), return_skipped=True)
        assert skipped == want_skipped > 0
        # the batched and the scalar analysis round differently (order of sums)
        np.testing.assert_allclose(got_llr, want_llr, rtol=1e-9)
        got_cd = cepstral_distance(WaveForm(ref, FS), WaveForm(test, FS))
        np.testing.assert_allclose(got_cd, oracle_cd(ref, test), rtol=1e-9)

    def test_all_zero_test_signal_rejected(self):
        ref = tone_like(np.random.default_rng(143), 2000)
        for metric in (cepstral_distance, llr):
            with pytest.raises(ContractError):
                metric(WaveForm(ref, FS), WaveForm(np.zeros(2000), FS))


class TestOracle16k:
    """512-sample frames at 16 kHz, zeroed stretch and DC step included."""

    FS16 = 16000

    def _pair(self):
        return TestDegenerateFrames._zeroed_and_dc_step(self.FS16, 4000)

    def test_cd(self):
        ref, test = self._pair()
        got = cepstral_distance(WaveForm(ref, self.FS16), WaveForm(test, self.FS16))
        np.testing.assert_allclose(got, oracle_cd(ref, test, self.FS16), rtol=1e-9)

    def test_llr(self):
        ref, test = self._pair()
        want, want_skipped = oracle_llr(ref, test, self.FS16)
        got, skipped = llr(WaveForm(ref, self.FS16), WaveForm(test, self.FS16), return_skipped=True)
        assert skipped == want_skipped > 0
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_fwsegsnr(self):
        ref, test = self._pair()
        got = fwsegsnr(WaveForm(ref, self.FS16), WaveForm(test, self.FS16))
        np.testing.assert_allclose(got, oracle_fwsegsnr(ref, test, self.FS16), atol=1e-9)


class TestSharedInvariances:
    def _pair(self):
        rng = np.random.default_rng(140)
        margin = 4 * FRAME
        ref = tone_like(rng, 2000, lead_silence=margin)
        ref = np.concatenate([ref, np.zeros(margin)])
        test = ref + 0.03 * np.concatenate(
            [np.zeros(margin), np.random.default_rng(7).standard_normal(2000), np.zeros(margin)]
        )
        return ref, test

    def test_whole_frame_shift_invariance(self):
        ref, test = self._pair()
        shift = FRAME  # whole analysis frame = 4 hops
        ref2 = np.concatenate([np.zeros(shift), ref])[: ref.size]
        test2 = np.concatenate([np.zeros(shift), test])[: test.size]
        for metric in (cepstral_distance, llr, fwsegsnr):
            a = metric(WaveForm(ref, FS), WaveForm(test, FS))
            b = metric(WaveForm(ref2, FS), WaveForm(test2, FS))
            assert a == b, metric.__name__

    def test_common_gain_invariance_cd_llr(self):
        ref, test = self._pair()
        for metric in (cepstral_distance, llr):
            a = metric(WaveForm(ref, FS), WaveForm(test, FS))
            b = metric(WaveForm(2.0 * ref, FS), WaveForm(2.0 * test, FS))
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_rate_mismatch_rejected(self):
        with pytest.raises(ContractError):
            cepstral_distance(WaveForm(np.ones(2000), 4000), WaveForm(np.ones(2000), 8000))


class TestEvaluatePair:
    """Each metric's own result and errors, and each recursion run once over
    both signals' rows stacked."""

    @staticmethod
    def _pairs():
        pairs = []
        for fs, n in ((FS, 3000), (16000, 4000)):
            rng = np.random.default_rng(fs + 150)
            ref = tone_like(rng, n, lead_silence=n // 8, fs=fs)
            echo = np.convolve(ref, np.exp(-np.arange(fs // 10) / (fs / 40)))[: ref.size]
            pairs += [
                (ref, ref + 0.002 * rng.standard_normal(ref.size), fs),
                (ref, 0.2 * echo, fs),
                (ref, ref + 0.2 * rng.standard_normal(ref.size), fs),
                (*TestDegenerateFrames._zeroed_and_dc_step(fs, n), fs),
            ]
        return pairs

    def test_equals_each_metric_alone(self):
        skipped_pairs = 0
        for ref, test, fs in self._pairs():
            r, t = WaveForm(ref.copy(), fs), WaveForm(test.copy(), fs)
            got = evaluate_pair(r, t)
            assert np.array_equal(r.samples, ref) and np.array_equal(t.samples, test)
            assert got["cd"] == cepstral_distance(r, t)
            value, skipped = llr(r, t, return_skipped=True)
            assert got["llr"] == value
            assert got["fwsegsnr"] == fwsegsnr(r, t)
            skipped_pairs += skipped > 0
        assert skipped_pairs == 2  # the zeroed stretches give degenerate, skipped frames

    @pytest.mark.parametrize(
        "case,patched,message",
        [
            ("silent_ref", (), "reference signal is silent; metrics undefined"),
            ("zero_test", (), "no valid frames for cepstral distance"),
            ("short", (), "signals shorter than one 32 ms frame (128 samples)"),
            ("zero_test", ("llr", "fwsegsnr"), "no valid frames for cepstral distance"),
            ("noisy", ("llr", "fwsegsnr"), "no valid frames for LLR (59 skipped)"),
            ("noisy", ("fwsegsnr",), "no valid frames for FWSegSNR"),
        ],
    )
    def test_raises_the_first_failing_metrics_error(self, monkeypatch, case, patched, message):
        ref = tone_like(np.random.default_rng(144), 2000)
        ref, test = {
            "silent_ref": (np.zeros(2000), ref),
            "zero_test": (ref, np.zeros(2000)),
            "short": (ref[: FRAME - 1], ref[: FRAME - 1]),
            "noisy": (ref, ref + 0.1 * np.random.default_rng(145).standard_normal(2000)),
        }[case]
        # make LLR's quadratic forms, or FWSegSNR's band weights, all zero
        if "llr" in patched:
            monkeypatch.setattr(metrics, "_toeplitz_form", lambda r, v: np.zeros(r.shape[0]))
        if "fwsegsnr" in patched:
            monkeypatch.setattr(
                metrics, "_mel_filterbank", lambda n, nfft, fs: np.zeros((n, nfft // 2 + 1))
            )
        r, t = WaveForm(ref, FS), WaveForm(test, FS)
        first = None
        for metric in (cepstral_distance, llr, fwsegsnr):
            try:
                metric(r, t)
            except ContractError as exc:
                first = str(exc)
                break
        assert first == message
        with pytest.raises(ContractError) as info:
            evaluate_pair(r, t)
        assert str(info.value) == message

    def test_stacked_recursions_equal_separate_calls_bit_for_bit(self):
        ref, test = TestDegenerateFrames._zeroed_and_dc_step(FS, 3000)
        fr, ft = metrics._frame_pair(WaveForm(ref, FS), WaveForm(test, FS))
        lags = [metrics._autocorr(fr), metrics._autocorr(ft)]
        stacked = np.concatenate(lags)
        a, ok = metrics._levinson_durbin(stacked)
        n = fr.shape[0]
        assert not ok[n:].all()  # the zeroed stretch gives degenerate rows
        for half, r in zip((slice(None, n), slice(n, None)), lags):
            a_alone, ok_alone = metrics._levinson_durbin(r)
            assert np.array_equal(stacked[half], r)  # both regularized in place
            assert np.array_equal(ok[half], ok_alone)
            assert np.array_equal(a[half][ok_alone], a_alone[ok_alone])
        a_ref, a_test = a[:n][ok[:n] & ok[n:]], a[n:][ok[:n] & ok[n:]]
        c = metrics._lpc_cepstrum(np.concatenate([a_ref, a_test]))
        m = a_ref.shape[0]
        assert np.array_equal(c[:m], metrics._lpc_cepstrum(a_ref))
        assert np.array_equal(c[m:], metrics._lpc_cepstrum(a_test))
        r = lags[0][ok[:n] & ok[n:]]
        v = np.ones((2 * m, metrics.LPC_ORDER + 1))
        v[:m, 1:], v[m:, 1:] = -a_test, -a_ref
        q = metrics._toeplitz_form(np.tile(r, (2, 1)), v)
        assert np.array_equal(q[:m], metrics._toeplitz_form(r, v[:m]))
        assert np.array_equal(q[m:], metrics._toeplitz_form(r, v[m:]))

    def test_one_framing_and_one_recursion_per_metric(self, monkeypatch):
        names = ("_frame_pair", "_levinson_durbin", "_lpc_cepstrum", "_toeplitz_form")
        calls = dict.fromkeys(names, 0)
        for name in names:
            inner = getattr(metrics, name)

            def counted(*args, _inner=inner, _name=name):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(metrics, name, counted)
        ref, test, fs = self._pairs()[2]
        r, t = WaveForm(ref, fs), WaveForm(test, fs)
        for metric, want in (
            (cepstral_distance, (1, 1, 1, 0)),
            (llr, (1, 1, 0, 1)),
            (fwsegsnr, (1, 0, 0, 0)),
            (evaluate_pair, (3, 2, 1, 1)),
        ):
            calls.update(dict.fromkeys(names, 0))
            metric(r, t)
            assert tuple(calls.values()) == want, metric.__name__
