"""Anatomy of a pump-and-dump: the §2/§4 observational view.

Renders ASCII charts of the average price and volume trajectories around
pump time (Figure 4 a-b), the return-window curve (Figure 4 c) and the
per-channel homogeneity statistics (Figure 5).

    python examples/pnd_anatomy.py
"""

import numpy as np

from repro.analysis import channel_level_study, event_study, volume_onset_hour
from repro.data import collect
from repro.simulation import SyntheticWorld
from repro.sources import SyntheticWorldSource
from repro.utils import ReproConfig


def ascii_chart(xs, ys, height: int = 12, title: str = "") -> str:
    """Render a quick ASCII line chart."""
    ys = np.asarray(ys, dtype=float)
    lo, hi = float(ys.min()), float(ys.max())
    span = hi - lo or 1.0
    rows = []
    levels = ((ys - lo) / span * (height - 1)).round().astype(int)
    for level in range(height - 1, -1, -1):
        row = "".join("#" if l >= level else " " for l in levels)
        rows.append(row)
    axis = "-" * len(ys)
    return f"{title}  [min={lo:.3f}, max={hi:.3f}]\n" + "\n".join(rows) + "\n" + axis


def main() -> None:
    world = SyntheticWorld.generate(ReproConfig.tiny())
    study = event_study(world, max_events=30)

    # Downsample the minute grid for terminal width.
    stride = max(1, len(study.minute_grid) // 90)
    grid = study.minute_grid[::stride]
    print(ascii_chart(grid, study.avg_price_curve[::stride],
                      title="Figure 4(a): average price, -72h .. +24h"))
    print()
    print(ascii_chart(grid, np.log1p(study.avg_volume_curve[::stride]),
                      title="Figure 4(b): average volume (log), -72h .. +24h"))
    print(f"\nfrequent-trading onset: ~{volume_onset_hour(study):.0f}h before "
          f"the pump (paper: ~57h)")

    print("\nFigure 4(c): average return in (x+1,1] windows before the pump")
    for x, value in sorted(study.window_returns_pumped.items()):
        bar = "#" * int(max(value, 0) * 300)
        print(f"  x={x:<3} {value:+.3f} {bar}")
    print("  (random coins: all near zero)")

    samples = collect(SyntheticWorldSource(world)).samples
    channels = channel_level_study(world, samples, min_history=3)
    print("\nFigure 5: intra-channel homogeneity (spread ratios, <1 = homogeneous)")
    for feature, scatter in channels.scatters.items():
        print(f"  {feature:<22} {scatter.homogeneity_ratio:.3f}")


if __name__ == "__main__":
    main()
