"""Seeded input generator: the profiles and configs every workload reads.

Everything here is a pure function of the seed, so the same seed gives
byte-identical files. The program under test receives only these files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

YEAR_STEPS = 8760
DECADE_STEPS = 87600
N_SCENARIOS = 50

GENERATION_HEADER = "index,demand_kw,price,grid_available,pv_kw,wind_kw"
RESOURCE_HEADER = ("index,demand_kw,price,grid_available,"
                   "irradiance_wm2,wind_speed_ms")


def _hour_of_day(n: int) -> np.ndarray:
    return np.arange(n) % 24


def _demand_kw(rng, n: int) -> np.ndarray:
    """Community load: morning and evening peaks, seasonal swing, noise."""
    hour = _hour_of_day(n)
    day = np.arange(n) // 24
    shape = (90.0 + 50.0 * np.exp(-((hour - 8.0) ** 2) / 4.0)
             + 120.0 * np.exp(-((hour - 19.5) ** 2) / 6.0))
    season = 1.0 + 0.15 * np.cos(2.0 * np.pi * (day % 365) / 365.0)
    return shape * season * rng.uniform(0.85, 1.15, n)


def _price_cents(rng, n: int) -> np.ndarray:
    """Real-time tariff in cents/kWh, quoted to three decimals."""
    hour = _hour_of_day(n)
    base = 10.0 + 16.0 * np.exp(-((hour - 18.0) ** 2) / 18.0) \
        + 8.0 * np.exp(-((hour - 10.0) ** 2) / 8.0)
    return np.round(base * rng.uniform(0.9, 1.1, n), 3)


def _grid_available(rng, n: int) -> np.ndarray:
    """Mostly connected, with a few short unplanned outages."""
    grid = np.ones(n, dtype=np.int64)
    for start in rng.integers(0, n - 12, size=max(1, n // 2000)):
        grid[start:start + int(rng.integers(2, 9))] = 0
    return grid


def _irradiance_wm2(rng, n: int) -> np.ndarray:
    """Clear-sky bell between 06:00 and 18:00, scaled by cloud cover.

    Peaks reach about 1,100 W/m^2, so the clamp at the reference irradiance
    is exercised.
    """
    hour = _hour_of_day(n)
    day = np.arange(n) // 24
    sun = np.clip(np.sin(np.pi * (hour - 6.0) / 12.0), 0.0, None)
    season = 0.8 + 0.25 * np.cos(2.0 * np.pi * ((day % 365) - 172) / 365.0)
    clouds = rng.uniform(0.3, 1.05, n)
    return 1100.0 * sun * season * clouds


def _wind_speed_ms(rng, n: int) -> np.ndarray:
    """Weibull speeds (shape 2, scale 7 m/s): below cut-in to above cut-out."""
    return 7.0 * rng.weibull(2.0, n) * rng.uniform(0.9, 1.1, n)


def _rows(index, demand, price, grid, a, b) -> str:
    # repr keeps every digit of the measured-looking columns; the profile
    # parser therefore reads full-length floats, as it would from a logger.
    lines = [f"{i},{d!r},{p!r},{g},{x!r},{y!r}"
             for i, d, p, g, x, y in zip(index, demand.tolist(),
                                         price.tolist(), grid.tolist(),
                                         a.tolist(), b.tolist())]
    return "\n".join(lines) + "\n"


def year_profile(seed: int) -> bytes:
    """8,760 hourly steps in generation mode (PV and wind power in kW)."""
    rng = np.random.default_rng([seed, 1])
    n = YEAR_STEPS
    demand = _demand_kw(rng, n)
    price = _price_cents(rng, n)
    grid = _grid_available(rng, n)
    # the example config: 250 kW PV at 0.8 derating, 120 kW wind
    pv = 200.0 * np.clip(_irradiance_wm2(rng, n) / 1000.0, 0.0, 1.0)
    wind = np.clip(120.0 * (_wind_speed_ms(rng, n) / 12.0) ** 3, 0.0, 120.0)
    body = _rows(range(n), demand, price, grid, pv, wind)
    return (GENERATION_HEADER + "\n" + body).encode("utf-8")


def decade_profile(seed: int) -> bytes:
    """87,600 hourly steps in resource mode (irradiance and wind speed)."""
    rng = np.random.default_rng([seed, 2])
    n = DECADE_STEPS
    demand = _demand_kw(rng, n)
    price = _price_cents(rng, n)
    grid = _grid_available(rng, n)
    body = _rows(range(n), demand, price, grid, _irradiance_wm2(rng, n),
                 _wind_speed_ms(rng, n))
    return (RESOURCE_HEADER + "\n" + body).encode("utf-8")


def decade_outage(seed: int) -> tuple[int, int]:
    """The forced outage window (start step, hours) of the decade run."""
    rng = np.random.default_rng([seed, 3])
    return int(rng.integers(0, DECADE_STEPS - 48)), int(rng.integers(4, 25))


def scenario_sections(seed: int) -> str:
    """50 [scenario:Pnn] sections for the year matrix.

    Demand, PV and wind multipliers are graded across the matrix; every
    fifth scenario carries an explicit outage window, and every third a
    fuel-price multiplier.
    """
    rng = np.random.default_rng([seed, 4])
    out = []
    for k in range(1, N_SCENARIOS + 1):
        grade = k / N_SCENARIOS
        lines = [f"[scenario:P{k:02d}]",
                 f"demand_multiplier = {0.90 + 0.25 * grade:.4f}",
                 f"pv_multiplier = {1.10 - 0.60 * grade:.4f}",
                 f"wind_multiplier = {0.50 + 0.70 * rng.random():.4f}"]
        if k % 3 == 0:
            lines.append(f"fuel_price_multiplier = {1.0 + 2.0 * rng.random():.4f}")
        if k % 5 == 0:
            hours = int(rng.integers(2, 49))
            start = int(rng.integers(0, YEAR_STEPS - hours))
            lines += [f"outage_start = {start}", f"outage_hours = {hours}"]
        out.append("\n".join(lines))
    return "\n\n".join(out) + "\n"


def write_inputs(directory: Path, seed: int, example_config: Path) -> dict:
    """Write every generated file; return their paths and the decade outage."""
    directory.mkdir(parents=True, exist_ok=True)
    base_config = example_config.read_text(encoding="utf-8")
    paths = {
        "config": directory / "config.ini",
        "matrix_config": directory / "matrix_config.ini",
        "year": directory / "year.csv",
        "decade": directory / "decade.csv",
    }
    paths["config"].write_text(base_config, encoding="utf-8")
    paths["matrix_config"].write_text(
        base_config.rstrip("\n") + "\n\n" + scenario_sections(seed),
        encoding="utf-8")
    paths["year"].write_bytes(year_profile(seed))
    paths["decade"].write_bytes(decade_profile(seed))
    start, hours = decade_outage(seed)
    return {**{k: str(v) for k, v in paths.items()},
            "decade_outage_start": start, "decade_outage_hours": hours}
