"""Market trend forecasting lab: feature construction from price, indicator,
and sentiment streams; fused-input stacked recurrent regression trained on an
RMSE objective; and a seeded experiment harness.
"""

__version__ = "0.1.0"
