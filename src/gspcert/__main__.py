"""`python -m gspcert` runs the gspcert command line."""
from .cli import main

if __name__ == "__main__":
    main(prog_name="gspcert")
