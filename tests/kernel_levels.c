/* kernel_steps.c with every clone attribute of the kernel compiled out, so
 * that a build with -march=<level> runs that one x86-64 level throughout:
 * _kernel.c defines CLONES and TILE_CLONES as target_clones only under
 * __GLIBC__, which features.h defines once, before any other header. */
#include <features.h>
#undef __GLIBC__
#include "kernel_steps.c"
