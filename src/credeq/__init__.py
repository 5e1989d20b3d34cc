"""Joint pricing and calibration of defaultable bonds, equity options, and CDS.

A Vasicek short rate, a multiscale stochastic default intensity, and a
fast-scale stochastic volatility enter option and bond prices only through
closed-form leading-order prices plus Greek-linear corrections with eight
calibrated group coefficients. The package fits those coefficients to a
corporate bond curve and an option surface jointly, then emits model CDS
spread curves that used no CDS data.
"""

from .calibration import (
    BondFit,
    ModelFit,
    OptionFit,
    fit_bonds,
    fit_options,
)
from .cds import CdsSchedule, annual_schedule, cds_series, cds_spread, cds_term_structure
from .corrections import CorrectionParams, greeks, price_full
from .errors import (
    CalibrationError,
    ConfigurationError,
    CredeqError,
    DomainError,
    NumericalError,
    ValidationError,
)
from .implied_vol import bs_price, bs_vega, implied_vol
from .market_data import (
    BondQuote,
    OptionQuote,
    PriceHistory,
    TreasuryCurve,
    filter_options,
)
from .pricing import (
    CreditParams,
    PricingInputs,
    call_p0,
    defaultable_bond_p0,
    put_p0,
)
from .rates import (
    EquityParams,
    VasicekParams,
    estimate_rho1,
    estimate_sigma2,
    fit_vasicek,
    riskless_bond,
    vasicek_yield,
)

__version__ = "0.1.0"
