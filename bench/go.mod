module loft/bench

go 1.22

require loft v0.0.0

replace loft => ../
