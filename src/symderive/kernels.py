# Read only by perfbench/run.py, which prints it among the machine facts.
BACKEND = "python"
