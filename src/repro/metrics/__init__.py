"""Accuracy metrics, runtime-accuracy profiles and deadline planning."""

from .planning import DeadlinePlanner
from .profiles import ProfilePoint, RuntimeAccuracyProfile
from .snr import mse, nrmse, psnr_db, rmse, snr_db

__all__ = ["DeadlinePlanner", "ProfilePoint", "RuntimeAccuracyProfile",
           "mse", "nrmse", "psnr_db", "rmse", "snr_db"]
