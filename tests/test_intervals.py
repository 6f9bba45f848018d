"""Adaptive-precision sign decisions: escalation, caps, environment knob."""

from mpmath import iv

from coloured_neretin import decide_sign, default_precision, interval_width


def test_decide_sign_clearly_positive():
    sign, value, bits = decide_sign(lambda: iv.log(2), start_bits=64)
    assert sign == 1
    assert value.a > 0
    assert bits == 64  # no escalation needed


def test_decide_sign_clearly_negative():
    sign, value, bits = decide_sign(lambda: -iv.exp(1), start_bits=64)
    assert sign == -1
    assert value.b < 0
    assert bits == 64


def test_decide_sign_escalates_precision_for_tiny_differences():
    # log(10^50 + 1) - 50*log(10) is about 1e-50; 16 bits cannot resolve it.
    def expr():
        return iv.log(iv.mpf(10) ** 50 + 1) - 50 * iv.log(10)

    sign, value, bits = decide_sign(expr, start_bits=16)
    assert sign == 1
    assert bits > 16
    assert interval_width(value) < 1e-45


def test_decide_sign_exact_zero_is_undecided():
    sign, value, bits = decide_sign(lambda: iv.mpf(1) - iv.mpf(1),
                                    start_bits=32, max_bits=128)
    assert sign is None
    assert value.a <= 0 <= value.b
    assert bits == 128  # the last precision tried, the cap


def test_undecided_reports_the_last_precision_tried():
    sign, value, bits = decide_sign(lambda: iv.mpf(0), max_bits=256)
    assert (sign, value, bits) == (None, iv.mpf(0), 256)


def test_decide_sign_restores_global_precision():
    before = iv.prec
    decide_sign(lambda: iv.log(2), start_bits=333)
    assert iv.prec == before


def test_decide_sign_reads_default_precision(monkeypatch):
    monkeypatch.setenv("COLOURED_NERETIN_PRECISION", "512")
    seen = []

    def expr():
        seen.append(iv.prec)
        return iv.mpf(1)

    sign, _, bits = decide_sign(expr)
    assert sign == 1
    assert bits == 512
    assert seen[0] == 512


def test_default_precision_parsing(monkeypatch):
    monkeypatch.setenv("COLOURED_NERETIN_PRECISION", "256")
    assert default_precision() == 256
    monkeypatch.setenv("COLOURED_NERETIN_PRECISION", "not-a-number")
    assert default_precision() == 128
    monkeypatch.setenv("COLOURED_NERETIN_PRECISION", "4")
    assert default_precision() == 16  # floor keeps mpmath workable
    monkeypatch.delenv("COLOURED_NERETIN_PRECISION")
    assert default_precision() == 128


def test_interval_width():
    assert interval_width(iv.mpf([1, 2])) == 1.0
    assert interval_width(iv.mpf(3)) == 0.0
    # a decimal that is not a binary fraction has a genuine, tiny width
    assert 0 < interval_width(iv.mpf("0.1")) < 1e-15


def test_decide_sign_reports_the_settling_interval():
    sign, value, bits = decide_sign(lambda: iv.pi - 3, start_bits=53)
    assert sign == 1
    assert 0.1415 < float(value.a) <= float(value.b) < 0.1416
