"""``python -m qhyp``: the command-line front end of :mod:`qhyp.cli`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
