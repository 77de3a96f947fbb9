import math

from switchcert.report import check_close, check_exact_int, check_leq, nan_max


def test_nan_max_propagates_nan():
    assert nan_max(0.0, 2.5, 1.0) == 2.5
    assert nan_max(-3) == -3.0
    for values in ((0.0, math.nan), (math.nan, 0.0), (1.0, math.nan, 2.0)):
        assert math.isnan(nan_max(*values))
    # the builtin keeps whichever operand came first
    assert max(0.0, math.nan) == 0.0


def test_checks_fail_on_nan():
    worst = nan_max(0.0, math.nan)
    assert not check_leq("worst", worst, 1e-9).passed
    assert not check_close("worst", worst, 0.0, 1e-9).passed


def test_check_exact_int_beyond_float_range():
    for measured, recorded in ((10 ** 400, math.inf), (-10 ** 400, -math.inf)):
        check = check_exact_int("a", measured, 1)
        assert not check.passed
        assert check.measured == recorded and check.target == 1.0
    assert check_exact_int("a", 10 ** 400, 10 ** 400).passed
