"""Scalar references for the resource conversion and the profile wire format.

pv_power and wind_power convert one measurement at a time, exactly as
mgems first shipped them. Tests require the vectorised conversion in
mgems.profiles (resource_to_inputs) to reproduce them bit for bit, so do
not edit them to make a change there pass: a change here is a change of
the component models, and so of the program's output.

serialize_profile writes a profile back to the CSV wire format that
mgems.profiles.parse_profile reads, for round-trip tests.
"""

import io

from mgems.profiles import (GENERATION_HEADER, RESOURCE_HEADER,
                            STANDARD_IRRADIANCE_WM2, ResourceProfile)


def serialize_profile(profile):
    """Write a profile's columns back to the CSV wire format (inverse of
    parse_profile)."""
    out = io.StringIO()
    if isinstance(profile, ResourceProfile):
        header = RESOURCE_HEADER
    else:
        header = GENERATION_HEADER
    out.write(",".join(header) + "\n")
    columns = (getattr(profile, name).tolist() for name in header[1:])
    for i, (demand, price, grid, a, b) in enumerate(zip(*columns)):
        out.write(f"{i},{demand!r},{price!r},{grid},{a!r},{b!r}\n")
    return out.getvalue().encode("utf-8")


def pv_power(irradiance_wm2, spec):
    """PV output for a global horizontal irradiance, in kW.

    Rated output scaled by the derating factor and normalized irradiance,
    clamped at the reference irradiance.
    """
    if irradiance_wm2 < 0:
        raise ValueError(f"irradiance must be >= 0, got {irradiance_wm2}")
    ratio = irradiance_wm2 / STANDARD_IRRADIANCE_WM2
    if ratio > 1.0:
        ratio = 1.0
    return spec.capacity_kw * spec.derating_factor * ratio


def wind_power(speed_ms, spec):
    """Wind fleet output for a measured speed, in kW.

    The measured speed is shear-corrected to hub height, then mapped through
    a piecewise curve: zero below cut-in and at/above cut-out, rated between
    the rated speed and cut-out, cubic interpolation in between.
    """
    if speed_ms < 0:
        raise ValueError(f"wind speed must be >= 0, got {speed_ms}")
    v = speed_ms * (spec.hub_height_m / spec.anemometer_height_m) ** spec.shear_exponent
    if v < spec.cut_in_ms or v >= spec.cut_out_ms:
        return 0.0
    if v >= spec.rated_speed_ms:
        return spec.capacity_kw
    ci3 = spec.cut_in_ms ** 3
    return spec.capacity_kw * (v ** 3 - ci3) / (spec.rated_speed_ms ** 3 - ci3)
