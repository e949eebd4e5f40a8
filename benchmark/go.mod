module skygraph/benchmark

go 1.24

require skygraph v0.0.0

replace skygraph => ../
