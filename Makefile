# Convenience targets for the repro library.

PYTHON ?= python
# Import the package from the checkout, as CI does, so that no target
# needs `make install` first.
export PYTHONPATH := src

.PHONY: install test bench report examples telemetry-demo clean

install:
	pip install -e .[dev]

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

report:
	$(PYTHON) -m repro report --out report

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script || exit 1; \
	done

telemetry-demo:
	$(PYTHON) -m repro telemetry --cores 8 --duration 0.2 \
		--out benchmarks/out

clean:
	rm -rf report benchmarks/out .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
