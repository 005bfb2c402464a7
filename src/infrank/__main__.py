"""Run the command-line interface: ``python -m infrank ...``."""
from .cli import main
raise SystemExit(main())
