"""Entry point for `python -m spectop`; the same as the `spectop` command."""

from .cli import main

if __name__ == "__main__":
    main()
