import importlib

import cfdeform

MODULES = ("exactnum", "contfrac", "udeform", "qdeform", "analysis")

# The package's names before each module's __all__ became their only list.
EARLIER_NAMES = (
    "__version__ CFExpansion StreamingCF cf_expand cf_value convergents ell j_rewrite "
    "parse_cf parse_rational RationalFunction RingPoly TruncatedSeries series_of_ratfun "
    "U_CON U_NUM U_RZERO_POLY U_SZERO_POLY DescendingCF FPair SZeroParams UParams "
    "codenominator f_pair fibonacci_poly_extend golden_closed_form golden_iterate "
    "j_quotient quantize rzero_descending_cf shift_by_integer szero_cf_form q_deform "
    "q_deform_series q_int q_pair CATALAN FIBONACCI GENERALIZED_CATALAN PropertyReport "
    "ReferenceSequence bfs_oracle check_anti_unimodality check_sign_alternation "
    "check_unimodality convergent_determinant convergent_polys enumerate_rationals "
    "e_series_parity_report irrational_series match_reference observation_report "
    "run_property_sweep stabilization_depth"
).split()


def test_package_exports_every_module_all():
    modules = [importlib.import_module(f"cfdeform.{name}") for name in MODULES]
    expected = ["__version__"] + [name for mod in modules for name in mod.__all__]
    assert cfdeform.__all__ == expected
    assert len(set(expected)) == len(expected)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(cfdeform, name) is getattr(mod, name)


def test_earlier_exports_still_import():
    for name in EARLIER_NAMES:
        assert name in cfdeform.__all__
        getattr(cfdeform, name)
