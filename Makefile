GO ?= go

# Build tags threaded through every compile/test target. `make test TAGS=noasm`
# runs the whole suite on the pure-Go kernels (the same leg CI runs), and the
# fuzz/profile targets inherit it so a noasm profile or fuzz run needs no
# target-specific flags.
TAGS ?=
TAGFLAGS = $(if $(TAGS),-tags $(TAGS))

.PHONY: all build vet lint test race benchmark benchmark-test bench fuzz cover profile serve clean

all: vet build test

build:
	$(GO) build $(TAGFLAGS) ./...

vet:
	$(GO) vet $(TAGFLAGS) ./...

# Static quality gate: formatting, vet (plus an explicit asmdecl pass: the
# assembly kernels' frame/argument layout must match their Go stub
# declarations), and staticcheck (when installed). CI installs staticcheck on
# the runner; locally it is optional.
lint:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet $(TAGFLAGS) ./...
	$(GO) vet -asmdecl ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck $(TAGFLAGS) ./...; \
		else echo "staticcheck not installed, skipping"; fi

# The per-package timeout turns a spinning kernel into a failure, not a
# 10-minute hang; CI runs the same line at GOMAXPROCS 1, 2 and 4.
test:
	$(GO) test $(TAGFLAGS) -timeout 300s ./...

race:
	$(GO) test $(TAGFLAGS) -race ./...

# benchmark/ is a module of its own (it takes the library by `replace => ../`),
# so `./...` above never compiles it: build and test it against this checkout's
# library here, so that renaming an entry point it pins (benchmark/README.md,
# "Pinned entry points") fails before the benchmark pipeline does.
benchmark-test:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# The repo benchmark (BENCHMARK.json): every listed workload once, reports
# under benchmark/out/. The only place a speed number is taken.
benchmark:
	bash benchmark/run.sh -all -seed 1

# Paper-figure benchmarks (testing.B, one per artifact).
bench:
	$(GO) test $(TAGFLAGS) -bench=. -benchmem -run=^$$ ./...

# Fuzz smoke: 10s per untrusted-input decoder, plus the asm-vs-Go kernel
# cross-check (CI runs the same). All legs honor TAGS, so `make fuzz
# TAGS=noasm` fuzzes the pure-Go kernels (FuzzVecKernels then has no asm tier
# to diff and exits immediately, which is the correct noasm behavior).
FUZZTIME ?= 10s
fuzz:
	$(GO) test $(TAGFLAGS) -run=^$$ -fuzz=FuzzCiphertextUnmarshal -fuzztime=$(FUZZTIME) ./internal/ckks
	$(GO) test $(TAGFLAGS) -run=^$$ -fuzz=FuzzEvaluationKeySetUnmarshal -fuzztime=$(FUZZTIME) ./internal/ckks
	$(GO) test $(TAGFLAGS) -run=^$$ -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/ckks
	$(GO) test $(TAGFLAGS) -run=^$$ -fuzz=FuzzJobSpecDecode -fuzztime=$(FUZZTIME) ./internal/engine
	$(GO) test $(TAGFLAGS) -run=^$$ -fuzz=FuzzNTTRoundTrip -fuzztime=$(FUZZTIME) ./internal/ntt
	$(GO) test $(TAGFLAGS) -run=^$$ -fuzz=FuzzBConv -fuzztime=$(FUZZTIME) ./internal/rns
	$(GO) test $(TAGFLAGS) -run=^$$ -fuzz=FuzzVecKernels -fuzztime=$(FUZZTIME) ./internal/modarith

# Coverage profile + per-package summary. The crypto core (internal/ckks,
# internal/rns) and the dispatched row kernels (internal/modarith,
# internal/ntt — where a coverage hole means an untested asm/Go pair) carry
# the correctness burden — below 70% statement coverage there the run warns
# loudly (but does not fail: coverage is a visibility tool, the differential
# tests are the gate).
COVER_FLOOR ?= 70
cover:
	$(GO) test $(TAGFLAGS) -coverprofile=coverage.out -covermode=atomic ./... | tee coverage.txt
	@$(GO) tool cover -func=coverage.out | tail -1
	@for pkg in internal/ckks internal/rns internal/modarith internal/ntt; do \
		pct="$$(grep "/$$pkg	" coverage.txt | grep -o 'coverage: [0-9.]*' | grep -o '[0-9.]*')"; \
		if [ -z "$$pct" ]; then echo "WARNING: no coverage figure for $$pkg"; continue; fi; \
		echo "$$pkg: $$pct%"; \
		if [ "$$(printf '%.0f' "$$pct")" -lt "$(COVER_FLOOR)" ]; then \
			echo "WARNING: $$pkg coverage $$pct% below $(COVER_FLOOR)% floor"; \
		fi; \
	done

# CPU profiles for the two hot paths: the NTT transform kernels and the full
# key-switch pipeline (ModUp -> KeyMult -> ModDown, which exercises the
# wide-accumulation BConv kernel). Each leg leaves a .prof plus its test
# binary for `go tool pprof <binary> <profile>`.
profile:
	$(GO) test $(TAGFLAGS) -run=^$$ -bench='Forward|Inverse' -benchtime=2s \
		-cpuprofile=ntt_cpu.prof -o ntt_bench.test ./internal/ntt
	$(GO) test $(TAGFLAGS) -run=^$$ -bench=KeySwitch -benchtime=2s \
		-cpuprofile=keyswitch_cpu.prof -o ckks_bench.test ./internal/ckks
	@echo "wrote ntt_cpu.prof; inspect with: go tool pprof ntt_bench.test ntt_cpu.prof"
	@echo "wrote keyswitch_cpu.prof; inspect with: go tool pprof ckks_bench.test keyswitch_cpu.prof"

serve:
	$(GO) run ./cmd/anaheim-serve -addr :8080

clean:
	$(GO) clean ./...
