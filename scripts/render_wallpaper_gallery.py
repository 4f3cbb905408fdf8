"""Render every plane crystallographic class to SVG.

Writes one file per class into out/wallpaper (cell outline, rotation
centers with orders, mirror lines, dashed glide axes).

    python3 scripts/render_wallpaper_gallery.py [outdir]
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from flatorb.catalog import catalog_get
from flatorb.wallpaper import TABLE_2D, classify2, render_svg


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/wallpaper")
    outdir.mkdir(parents=True, exist_ok=True)
    for name in sorted(TABLE_2D):
        grp = catalog_get(name).group
        label = classify2(grp)
        path = outdir / f"{name}.svg"
        render_svg(grp, path)
        print(f"{name:6s} {label.orbifold_name:16s} -> {path}")


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout went away early (``| head``): end as the CLI
        # does, with stdout on os.devnull, exit code 1 and no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
