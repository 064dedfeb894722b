module gaaapi/benchmark

go 1.22

require gaaapi v0.0.0

replace gaaapi => ../
