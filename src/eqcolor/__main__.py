"""``python -m eqcolor``: the ``eqcolor`` command-line tool."""

from .cli import main

if __name__ == "__main__":
    main()
