module nlidb/bench

go 1.24

require nlidb v0.0.0

replace nlidb => ../
