// The benchmark is a module of its own because the contract it is accepted
// under asks for one (bench/README.md, "The acceptance contract"): a
// benchmark that has to be compiled is a package of its own in the
// benchmark's directory, with its own build file. The replace directive
// makes it build the tree it sits in, and the module path under repro/ is
// what lets it import repro/internal/... for the layer ladder. Tier-1
// `go build ./...` and `go test ./...` at the root skip it; run its tests
// with `cd bench && go test ./...`.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
