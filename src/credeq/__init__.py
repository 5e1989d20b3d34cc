"""Joint pricing and calibration of defaultable bonds, equity options, and CDS.

A Vasicek short rate, a multiscale stochastic default intensity, and a
fast-scale stochastic volatility enter option and bond prices only through
closed-form leading-order prices plus Greek-linear corrections with eight
calibrated group coefficients. The package fits those coefficients to a
corporate bond curve and an option surface jointly, then emits model CDS
spread curves that used no CDS data.

Import each name from its module: rates, pricing, corrections, calibration,
cds, implied_vol, market_data, errors, oracle_mc, cli.
"""
